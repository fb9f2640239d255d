package snapshot

import (
	"encoding/binary"
	"fmt"
	"testing"
)

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

// TestDecoderRejectsOtherVersions: a stream written under another format
// version fails at the header with the version error. Version 1 streams
// carried committed stores as uops and tagged MSHR waiters; version 2
// stores store-buffer entries by value and waiters as sequence numbers;
// version 3 registers two clocked components per Base/Int* node, not
// three (the controller ticks its protocol processor), so the events that
// processor schedules carry the controller's tick position.
func TestDecoderRejectsOtherVersions(t *testing.T) {
	for _, v := range []uint32{1, 2, Version + 1} {
		b := binary.LittleEndian.AppendUint32([]byte(Magic), v)
		b = binary.LittleEndian.AppendUint64(b, 0)
		_, err := NewDecoder(b)
		want := fmt.Sprintf("snapshot: format version %d, want %d", v, Version)
		if err == nil || err.Error() != want {
			t.Errorf("version %d: NewDecoder error %v, want %q", v, err, want)
		}
	}
}
