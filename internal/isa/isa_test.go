package isa

import (
	"reflect"
	"testing"
	"unsafe"
)

func TestRegClasses(t *testing.T) {
	if RegNone.Valid() {
		t.Fatal("RegNone must be invalid")
	}
	if RegNone != 0 {
		t.Fatal("the zero value of Reg must mean no register")
	}
	if Reg(1).IsFP() || !Reg(1).Valid() || !Reg(32).Valid() || Reg(32).IsFP() {
		t.Fatal("r1..r32 are integer registers")
	}
	if !Reg(33).IsFP() || !Reg(64).Valid() || !Reg(64).IsFP() {
		t.Fatal("r33..r64 are FP registers")
	}
	if Reg(65).Valid() {
		t.Fatal("r65 is out of range")
	}
}

func TestOpClassification(t *testing.T) {
	cases := []struct {
		op                             Op
		mem, load, store, uncached, fp bool
		nonspec                        bool
	}{
		{OpNop, false, false, false, false, false, false},
		{OpIntALU, false, false, false, false, false, false},
		{OpBitOp, false, false, false, false, false, false},
		{OpFPMul, false, false, false, false, true, false},
		{OpLoad, true, true, false, false, false, false},
		{OpStore, true, false, true, false, false, false},
		{OpPrefetch, true, false, false, false, false, false},
		{OpPrefetchX, true, false, false, false, false, false},
		{OpSwitch, true, true, false, true, false, true},
		{OpLdctxt, true, true, false, true, false, true},
		{OpSendHdr, true, false, true, true, false, true},
		{OpSendAddr, true, false, true, true, false, true},
		{OpSyncWait, false, false, false, false, false, true},
	}
	for _, c := range cases {
		if c.op.IsMem() != c.mem {
			t.Errorf("%v IsMem=%v want %v", c.op, c.op.IsMem(), c.mem)
		}
		if c.op.IsLoad() != c.load {
			t.Errorf("%v IsLoad=%v want %v", c.op, c.op.IsLoad(), c.load)
		}
		if c.op.IsStore() != c.store {
			t.Errorf("%v IsStore=%v want %v", c.op, c.op.IsStore(), c.store)
		}
		if c.op.IsUncached() != c.uncached {
			t.Errorf("%v IsUncached=%v want %v", c.op, c.op.IsUncached(), c.uncached)
		}
		if c.op.IsFPOp() != c.fp {
			t.Errorf("%v IsFPOp=%v want %v", c.op, c.op.IsFPOp(), c.fp)
		}
		if c.op.NonSpeculative() != c.nonspec {
			t.Errorf("%v NonSpeculative=%v want %v", c.op, c.op.NonSpeculative(), c.nonspec)
		}
	}
}

func TestLatencies(t *testing.T) {
	if OpIntMul.Latency() != 6 || OpIntDiv.Latency() != 35 {
		t.Fatal("integer mul/div latencies must match R10000 (6/35)")
	}
	if OpFPDivSP.Latency() != 12 || OpFPDivDP.Latency() != 19 {
		t.Fatal("FP divide latencies must be 12 (SP) / 19 (DP)")
	}
	if OpFPMul.Latency() != 1 {
		t.Fatal("FP multiply is fully pipelined, 1 cycle")
	}
	if OpIntDiv.Pipelined() || OpFPDivDP.Pipelined() {
		t.Fatal("divides are not pipelined")
	}
	if !OpIntMul.Pipelined() {
		t.Fatal("integer multiply is pipelined")
	}
}

func TestNextPC(t *testing.T) {
	br := &Instr{PC: 100, Op: OpBranch, Taken: true, Target: 200}
	if br.NextPC() != 200 {
		t.Fatal("taken branch must go to target")
	}
	br.Taken = false
	if br.NextPC() != 104 {
		t.Fatal("not-taken branch falls through")
	}
	alu := &Instr{PC: 100, Op: OpIntALU}
	if alu.NextPC() != 104 || alu.FallThrough() != 104 {
		t.Fatal("non-branch falls through")
	}
}

func TestOpNames(t *testing.T) {
	for o := OpNop; o < numOps; o++ {
		if o.String() == "" || o.String() == "op?" {
			t.Fatalf("op %d has no name", o)
		}
	}
	if Op(200).String() != "op?" {
		t.Fatal("out-of-range op should stringify as op?")
	}
}

// TestInstrLayout pins the instruction layout: no field may hold a pointer
// (streams and trace buffers of Instr stay out of the collector's mark
// work) and the struct stays 48 bytes.
func TestInstrLayout(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n != 48 {
		t.Errorf("unsafe.Sizeof(Instr{}) = %d, want 48", n)
	}
	typ := reflect.TypeOf(Instr{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if hasPointers(f.Type) {
			t.Errorf("Instr.%s (%v) holds a pointer", f.Name, f.Type)
		}
	}
}

// hasPointers reports whether a value of type t contains anything the
// garbage collector must trace.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}
