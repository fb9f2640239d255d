package stats

import (
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("got %d, want 10", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("reset failed")
	}
}

func TestPeak(t *testing.T) {
	var p Peak
	for _, v := range []int{3, 7, 2, 7, 1} {
		p.Sample(v)
	}
	if p.Max() != 7 {
		t.Fatalf("max=%d, want 7", p.Max())
	}
	if got := p.Mean(); got != 4 {
		t.Fatalf("mean=%v, want 4", got)
	}
	if p.Samples() != 5 {
		t.Fatalf("samples=%d, want 5", p.Samples())
	}
}

func TestPeakEmpty(t *testing.T) {
	var p Peak
	if p.Max() != 0 || p.Mean() != 0 {
		t.Fatal("empty peak should report zeros")
	}
}

func TestPeakMaxIsUpperBound(t *testing.T) {
	f := func(vals []uint8) bool {
		var p Peak
		max := 0
		for _, v := range vals {
			p.Sample(int(v))
			if int(v) > max {
				max = int(v)
			}
		}
		return p.Max() == max && p.Mean() <= float64(max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatioAndPercent(t *testing.T) {
	if Ratio(1, 0) != 0 || Percent(1, 0) != 0 {
		t.Fatal("division by zero must yield 0")
	}
	if Ratio(1, 4) != 0.25 {
		t.Fatal("ratio wrong")
	}
	if Percent(1, 4) != 25 {
		t.Fatal("percent wrong")
	}
}
