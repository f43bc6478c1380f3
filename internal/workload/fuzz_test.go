package workload

import (
	"reflect"
	"testing"
)

// traceLengthCrasher is a 24-byte v1 trace whose topology length
// uvarint is MaxInt64-1: the string's end offset overflows int.
var traceLengthCrasher = []byte("TQTR\x01\x08\x00\x00\x00\x00\x00\x00\x00" +
	"\xfe\xff\xff\xff\xff\xff\xff\xff\x7f" + "ab")

// traceCountCrasher is a 24-byte v1 trace with an empty header and a
// record count of 1<<62 with no records behind it.
var traceCountCrasher = []byte("TQTR\x01\x08\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
	"\x80\x80\x80\x80\x80\x80\x80\x80\x40")

// FuzzDecodeTrace drives arbitrary bytes through the trace decoder,
// which reads files named on the command line (noctool trace
// info|replay): it must never panic, and whatever it accepts must
// survive a re-encode — the same records, and the same header up to
// the fault section a fault-free header drops. The committed corpus
// (testdata/fuzz/FuzzDecodeTrace) holds the example capture, a faulted
// version-2 trace and the two hostile-length crashers.
func FuzzDecodeTrace(f *testing.F) {
	f.Add(sampleTrace().Encode())
	f.Fuzz(func(t *testing.T, blob []byte) {
		tr, err := DecodeTrace(blob)
		if err != nil {
			return
		}
		again, err := DecodeTrace(tr.Encode())
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		want := tr.Header
		if !want.faulted() {
			want.Faults, want.RetryTimeout, want.MaxRetries, want.WatchdogCycles, want.Engine = nil, 0, 0, 0, ""
		}
		if !reflect.DeepEqual(again.Header, want) {
			t.Errorf("header changed on re-encode:\n got %+v\nwant %+v", again.Header, want)
		}
		if len(again.Records) != len(tr.Records) || (len(tr.Records) > 0 && !reflect.DeepEqual(again.Records, tr.Records)) {
			t.Errorf("records changed on re-encode: %d vs %d", len(again.Records), len(tr.Records))
		}
	})
}
