package snapshot

import "testing"

// TestDecoderCount: a count is accepted only when its items fit in the rest
// of the stream; a negative or oversized count fails the decoder and reads
// as zero.
func TestDecoderCount(t *testing.T) {
	decode := func(count int64, tail int) *Decoder {
		e := NewEncoder()
		e.I64(count)
		for i := 0; i < tail; i++ {
			e.U8(0)
		}
		d, err := NewDecoder(e.Finish())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if d := decode(3, 24); d.Count(8) != 3 || d.Err() != nil {
		t.Fatalf("3 items of 8 bytes in 24 bytes rejected: %v", d.Err())
	}
	for _, tc := range []struct {
		name  string
		count int64
		tail  int
	}{
		{"negative", -1, 64},
		{"past the stream", 4, 24},
		{"huge", 1 << 60, 64},
	} {
		d := decode(tc.count, tc.tail)
		if n := d.Count(8); n != 0 || d.Err() == nil {
			t.Errorf("%s: Count = %d, err %v; want 0 and an error", tc.name, n, d.Err())
		}
	}
}
