package replica

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"prognosticator/internal/value"
)

// frameSnapshot wraps payload in a valid snapshot frame (length + CRC), so
// fuzzed payload bytes reach the decoder past the CRC check.
func frameSnapshot(payload []byte) []byte {
	out := make([]byte, snapHeader+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(payload, snapCRC))
	copy(out[snapHeader:], payload)
	return out
}

func fuzzSeedSnapshot(t testing.TB) []byte {
	enc, err := EncodeSnapshot(&StoreSnapshot{
		Index: 300, Batches: 17, Watermark: 290,
		AppliedIDs: map[string]uint64{"a-299": 299, "a-300": 300},
		Pairs: []SnapPair{
			{Key: value.NewKey("ITEM", value.Int(2)).Encode(), Val: value.Record(map[string]value.Value{
				"name": value.Str("lamp"), "bids": value.List(value.Int(-3), value.Bool(true)),
			})},
			{Key: value.NewKey("ITEM", value.Int(1)).Encode(), Val: value.Str("")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// FuzzSnapshotDecode: arbitrary bytes never panic the decoder, whether they
// arrive as a whole file or as a payload inside a valid CRC frame. Any input
// that decodes is canonical — it re-encodes to the same bytes — and no
// strict prefix of it decodes (a truncated snapshot is always an error).
func FuzzSnapshotDecode(f *testing.F) {
	seed := fuzzSeedSnapshot(f)
	f.Add(seed)
	f.Add(seed[snapHeader:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, enc := range [][]byte{data, frameSnapshot(data)} {
			s, err := DecodeSnapshot(enc)
			if err != nil {
				continue
			}
			again, err := EncodeSnapshot(s)
			if err != nil {
				t.Fatalf("decoded snapshot does not re-encode: %v", err)
			}
			if !bytes.Equal(again, enc) {
				t.Fatalf("decoded snapshot re-encodes differently:\n got %x\nwant %x", again, enc)
			}
			payload := enc[snapHeader:]
			for i := 0; i < len(enc); i++ {
				if _, err := DecodeSnapshot(enc[:i]); err == nil {
					t.Fatalf("truncation to %d of %d bytes decoded", i, len(enc))
				}
			}
			for i := 0; i < len(payload); i++ {
				if _, err := DecodeSnapshot(frameSnapshot(payload[:i])); err == nil {
					t.Fatalf("payload truncated to %d of %d bytes decoded", i, len(payload))
				}
			}
		}
	})
}

// TestSnapshotEncodingCanonical: replicas holding equal state must produce
// byte-identical snapshots, whatever order their store and dedup maps
// iterate in.
func TestSnapshotEncodingCanonical(t *testing.T) {
	want := fuzzSeedSnapshot(t)
	for i := 0; i < 20; i++ {
		if got := fuzzSeedSnapshot(t); !bytes.Equal(got, want) {
			t.Fatalf("encoding %d differs:\n got %x\nwant %x", i, got, want)
		}
	}
	s, err := DecodeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	if s.Index != 300 || s.Batches != 17 || s.Watermark != 290 || len(s.AppliedIDs) != 2 ||
		s.AppliedIDs["a-300"] != 300 || len(s.Pairs) != 2 {
		t.Fatalf("round trip lost data: %+v", s)
	}
	if v, _ := s.Pairs[1].Val.Field("name"); v.MustString() != "lamp" {
		t.Fatalf("pair values not restored: %+v", s.Pairs)
	}
}
