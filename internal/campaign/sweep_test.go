package campaign

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"anyopt/internal/core/discovery"
)

// TestSweepCodec: the journal's column encoding round-trips every shape an
// experiment produces, leaves the bytes after it alone, and refuses columns
// the bytes cannot hold before allocating for them.
func TestSweepCodec(t *testing.T) {
	const missing = -1 // the RTT column's no-answer marker
	decode := func(b []byte) (discovery.Sweep, []byte, bool) {
		r := frameReader{b: b}
		sw := readSweep(&r)
		return sw, r.b, !r.bad
	}
	for _, sw := range []discovery.Sweep{
		{},
		{RTT: []int64{1_000_000, missing, math.MaxInt64, 0}},
		{Site: []int32{1, 0, 15}, Link: []int32{700, 0, math.MaxInt32}},
		{Site: []int32{3, 3}, Link: []int32{9, 8}, RTT: []int64{5, 6, 7, 8}},
	} {
		enc := appendSweep([]byte("head"), sw)
		got, rest, ok := decode(append(enc[len("head"):], "tail"...))
		if !ok || string(rest) != "tail" || !reflect.DeepEqual(got, sw) {
			t.Errorf("%+v decoded to %+v, rest %q, ok %v", sw, got, rest, ok)
		}
		for cut := 0; cut < len(enc)-len("head"); cut++ {
			if _, _, ok := decode(enc[len("head") : len("head")+cut]); ok {
				t.Errorf("%+v cut to %d bytes decoded", sw, cut)
			}
		}
	}
	huge := binary.AppendUvarint(nil, 1<<40) // a column longer than the input
	if _, _, ok := decode(append(huge, 0, 0)); ok {
		t.Error("a column length beyond the input decoded")
	}
	wide := binary.AppendVarint([]byte{1}, math.MaxInt32+1) // a site ID that is no int32
	if _, _, ok := decode(append(wide, 0, 0)); ok {
		t.Error("a site ID beyond int32 decoded")
	}
}
