package discovery

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// TestSweepCodec: the journal's column encoding round-trips every shape an
// experiment produces, leaves the bytes after it alone, and refuses columns
// the bytes cannot hold before allocating for them.
func TestSweepCodec(t *testing.T) {
	for _, sw := range []Sweep{
		{},
		{RTT: []int64{1_000_000, rttMissing, math.MaxInt64, 0}},
		{Site: []int32{1, 0, 15}, Link: []int32{700, 0, math.MaxInt32}},
		{Site: []int32{3, 3}, Link: []int32{9, 8}, RTT: []int64{5, 6, 7, 8}},
	} {
		enc := sw.AppendBinary([]byte("head"))
		got, rest, err := DecodeSweep(append(enc[len("head"):], "tail"...))
		if err != nil || string(rest) != "tail" || !reflect.DeepEqual(got, sw) {
			t.Errorf("%+v decoded to %+v, rest %q, err %v", sw, got, rest, err)
		}
		for cut := 0; cut < len(enc)-len("head"); cut++ {
			if _, _, err := DecodeSweep(enc[len("head") : len("head")+cut]); err == nil {
				t.Errorf("%+v cut to %d bytes decoded", sw, cut)
			}
		}
	}
	huge := binary.AppendUvarint(nil, 1<<40) // a column longer than the input
	if _, _, err := DecodeSweep(append(huge, 0, 0)); err == nil {
		t.Error("a column length beyond the input decoded")
	}
	wide := binary.AppendVarint([]byte{1}, math.MaxInt32+1) // a site ID that is no int32
	if _, _, err := DecodeSweep(append(wide, 0, 0)); err == nil {
		t.Error("a site ID beyond int32 decoded")
	}
}
