package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"prognosticator/internal/store"
	"prognosticator/internal/value"
)

// StoreSnapshot is the application-level snapshot a replica takes of its
// store: the full live state at a raft index, plus the apply-side metadata
// needed to resume exactly where the snapshot was taken. The same encoded
// form serves three purposes — it is written to the replica's data dir
// (crash recovery), handed to raft.Compact as the compaction payload, and
// shipped verbatim inside InstallSnapshot to far-behind followers.
type StoreSnapshot struct {
	// Index is the raft index of the last batch reflected in Pairs.
	Index uint64
	// Batches is the replica's batch count at capture.
	Batches int
	// Watermark is the dedup low-water mark at capture: IDs first applied
	// at indices <= Watermark have been acknowledged and pruned.
	Watermark uint64
	// AppliedIDs are the surviving (unpruned) dedup entries.
	AppliedIDs map[string]uint64
	// Pairs is the live state, sorted by key so the encoding — and hence
	// the bytes raft replicates — is identical on every replica.
	Pairs []SnapPair
}

// SnapPair is one live key/value pair.
type SnapPair struct {
	Key value.Encoded
	Val value.Value
}

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// snapHeader frames an encoded snapshot: 4-byte little-endian payload
// length, then a CRC32-C of the payload. Mirrors the WAL frame so torn
// snapshot files are detected, not half-restored.
const snapHeader = 8

// snapFormat is the first payload byte, naming the payload layout:
//
//	format byte, uvarint Index, uvarint Batches, uvarint Watermark,
//	uvarint #IDs, then per ID in ascending order: string ID, uvarint index,
//	uvarint #pairs, then per pair in ascending key order: string key,
//	value.AppendBinary value
//
// where a string is a uvarint length and the bytes. Everything is sorted,
// so replicas holding equal state produce byte-identical snapshots.
const snapFormat = 1

// EncodeSnapshot serializes s with a CRC frame into a buffer sized exactly.
// Pairs are sorted in place.
func EncodeSnapshot(s *StoreSnapshot) ([]byte, error) {
	if s.Batches < 0 {
		return nil, fmt.Errorf("replica: encode snapshot: negative batch count %d", s.Batches)
	}
	slices.SortFunc(s.Pairs, func(a, b SnapPair) int { return strings.Compare(string(a.Key), string(b.Key)) })
	ids := make([]string, 0, len(s.AppliedIDs))
	for id := range s.AppliedIDs {
		ids = append(ids, id)
	}
	slices.Sort(ids)

	size := 1 + value.UvarintSize(s.Index) + value.UvarintSize(uint64(s.Batches)) +
		value.UvarintSize(s.Watermark) + value.UvarintSize(uint64(len(ids)))
	for _, id := range ids {
		size += value.StringSize(id) + value.UvarintSize(s.AppliedIDs[id])
	}
	size += value.UvarintSize(uint64(len(s.Pairs)))
	for _, p := range s.Pairs {
		size += value.StringSize(string(p.Key)) + value.BinarySize(p.Val)
	}
	if uint64(size) > math.MaxUint32 {
		return nil, fmt.Errorf("replica: encode snapshot: %d bytes exceeds the frame limit", size)
	}

	out := make([]byte, snapHeader, snapHeader+size)
	out = append(out, snapFormat)
	out = binary.AppendUvarint(out, s.Index)
	out = binary.AppendUvarint(out, uint64(s.Batches))
	out = binary.AppendUvarint(out, s.Watermark)
	out = binary.AppendUvarint(out, uint64(len(ids)))
	for _, id := range ids {
		out = value.AppendString(out, id)
		out = binary.AppendUvarint(out, s.AppliedIDs[id])
	}
	out = binary.AppendUvarint(out, uint64(len(s.Pairs)))
	for _, p := range s.Pairs {
		out = value.AppendString(out, string(p.Key))
		out = value.AppendBinary(out, p.Val)
	}
	payload := out[snapHeader:]
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(payload, snapCRC))
	return out, nil
}

// DecodeSnapshot parses an encoded snapshot, verifying the CRC frame and
// that the payload is well formed: canonical order, no trailing bytes.
func DecodeSnapshot(data []byte) (*StoreSnapshot, error) {
	if len(data) < snapHeader {
		return nil, fmt.Errorf("replica: snapshot too short (%d bytes)", len(data))
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if uint64(snapHeader)+uint64(n) != uint64(len(data)) {
		return nil, fmt.Errorf("replica: snapshot length mismatch (header %d, body %d)", n, len(data)-snapHeader)
	}
	payload := data[snapHeader:]
	if crc32.Checksum(payload, snapCRC) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, fmt.Errorf("replica: snapshot CRC mismatch")
	}
	s, err := decodeSnapshotPayload(payload)
	if err != nil {
		return nil, fmt.Errorf("replica: decode snapshot: %w", err)
	}
	return s, nil
}

func decodeSnapshotPayload(b []byte) (*StoreSnapshot, error) {
	if len(b) == 0 || b[0] != snapFormat {
		return nil, errors.New("unknown snapshot format")
	}
	b = b[1:]
	var s StoreSnapshot
	var batches, count uint64
	var err error
	for _, f := range []*uint64{&s.Index, &batches, &s.Watermark, &count} {
		if *f, b, err = value.ReadUvarint(b); err != nil {
			return nil, err
		}
	}
	if batches > math.MaxInt {
		return nil, errors.New("batch count out of range")
	}
	s.Batches = int(batches)
	// Every ID and pair takes at least two bytes: a bound on the counts
	// that keeps a corrupt count from driving a huge allocation.
	if count > uint64(len(b)/2) {
		return nil, errors.New("dedup entry count exceeds payload")
	}
	if count > 0 {
		s.AppliedIDs = make(map[string]uint64, count)
	}
	prev := ""
	for i := uint64(0); i < count; i++ {
		var id string
		if id, b, err = value.ReadString(b); err != nil {
			return nil, err
		}
		if i > 0 && id <= prev {
			return nil, errors.New("dedup IDs not in ascending order")
		}
		prev = id
		if s.AppliedIDs[id], b, err = value.ReadUvarint(b); err != nil {
			return nil, err
		}
	}
	if count, b, err = value.ReadUvarint(b); err != nil {
		return nil, err
	}
	if count > uint64(len(b)/2) {
		return nil, errors.New("pair count exceeds payload")
	}
	s.Pairs = make([]SnapPair, count)
	for i := range s.Pairs {
		var key string
		if key, b, err = value.ReadString(b); err != nil {
			return nil, err
		}
		if i > 0 && key <= string(s.Pairs[i-1].Key) {
			return nil, errors.New("pairs not in ascending key order")
		}
		s.Pairs[i].Key = value.Encoded(key)
		if s.Pairs[i].Val, b, err = value.ReadBinary(b); err != nil {
			return nil, err
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(b))
	}
	return &s, nil
}

// CaptureStore flattens the store's live state at its current epoch into
// snapshot pairs.
func CaptureStore(st *store.Store) []SnapPair {
	pairs := make([]SnapPair, 0, st.Len())
	st.ForEach(st.Epoch(), func(k value.Encoded, v value.Value) {
		pairs = append(pairs, SnapPair{Key: k, Val: v})
	})
	return pairs
}

// RestoreStore replaces st's contents with the snapshot's pairs.
func RestoreStore(st *store.Store, s *StoreSnapshot) {
	items := make(map[value.Encoded]value.Value, len(s.Pairs))
	for _, p := range s.Pairs {
		items[p.Key] = p.Val
	}
	st.Restore(items)
}

// snapSuffix names snapshot files "<raft index>.snap".
const snapSuffix = ".snap"

func snapName(index uint64) string { return fmt.Sprintf("%016d%s", index, snapSuffix) }

// WriteSnapshotFile durably writes an encoded snapshot to dir under its
// index name (tmp + rename, fsynced) and removes older snapshot files.
func WriteSnapshotFile(dir string, index uint64, encoded []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("replica: snapshot dir: %w", err)
	}
	tmp := filepath.Join(dir, "tmp.snap.partial")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("replica: snapshot write: %w", err)
	}
	if _, err := f.Write(encoded); err != nil {
		_ = f.Close()
		return fmt.Errorf("replica: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("replica: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("replica: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapName(index))); err != nil {
		return fmt.Errorf("replica: snapshot rename: %w", err)
	}
	// Older snapshots are superseded; best-effort cleanup.
	for _, idx := range listSnapshotIndices(dir) {
		if idx < index {
			_ = os.Remove(filepath.Join(dir, snapName(idx)))
		}
	}
	return nil
}

func listSnapshotIndices(dir string) []uint64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		idx, err := strconv.ParseUint(strings.TrimSuffix(name, snapSuffix), 10, 64)
		if err != nil {
			continue
		}
		out = append(out, idx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LoadSnapshotFile returns the newest parseable snapshot in dir, or nil if
// none exists (an empty or missing dir is not an error — the replica simply
// recovers from the WAL alone). A torn newest file falls back to the next
// older one, which the superseding write had not yet removed.
func LoadSnapshotFile(dir string) (*StoreSnapshot, error) {
	if dir == "" {
		return nil, nil
	}
	idxs := listSnapshotIndices(dir)
	for i := len(idxs) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(dir, snapName(idxs[i])))
		if err != nil {
			continue
		}
		s, err := DecodeSnapshot(data)
		if err != nil {
			continue
		}
		return s, nil
	}
	return nil, nil
}
