package node

import (
	"testing"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/memctrl"
	"smtpsim/internal/network"
	"smtpsim/internal/pipeline"
	"smtpsim/internal/ppengine"
	"smtpsim/internal/sim"
)

// BenchmarkIdleNodeCycle prices a cycle of a node with nothing to do, as
// built by New on a skipping engine: its core, memory controller and (on
// Base) protocol processor are all idle, while an always-busy neighbour
// keeps the engine stepping every cycle, as the rest of a machine does.
// One op is one simulated cycle, so ns/op is host ns per idle node-cycle.
// The controllers tick at the machine's 2 GHz periods: every 5th cycle
// on Base (400 MHz), every 2nd on SMTp.
func BenchmarkIdleNodeCycle(b *testing.B) {
	for _, tc := range []struct {
		name string
		smtp bool
		div  sim.Cycle
	}{{"Base", false, 5}, {"SMTp", true, 2}} {
		b.Run(tc.name, func(b *testing.B) {
			eng := sim.NewEngine(func(d sim.Desc) { b.Fatalf("an idle node fired event kind %d", d.Kind) })
			net := network.New(network.Config{Nodes: 1}, eng, func(network.Message) {})
			mcCfg := memctrl.Config{ClockDiv: tc.div, SDRAMAccessCyc: 160, SDRAMXferCyc: 80}
			var ppCfg *ppengine.Config
			if !tc.smtp {
				mcCfg.PIExtraCycles = 40
				c := ppengine.DefaultConfig(512*1024, 32)
				ppCfg = &c
			}
			New(Config{
				ID: 0, Nodes: 1, AddrMap: addrmap.NewMap(1), Engine: eng, Net: net,
				PipeCfg: pipeline.DefaultConfig(1, tc.smtp),
				MCCfg:   mcCfg, PPCfg: ppCfg, MCClockDiv: tc.div,
			})
			busy := 0
			eng.AddClocked(sim.ClockedFunc(func(sim.Cycle) { busy++ }), 1, 0)
			for i := 0; i < 1000; i++ {
				eng.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
			b.StopTimer()
			if busy != 1000+b.N {
				b.Fatalf("the busy neighbour ticked %d times in %d cycles", busy, 1000+b.N)
			}
		})
	}
}
