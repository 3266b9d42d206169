package value

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// randValue draws a value of any kind, nesting lists and records up to
// depth levels, with the edge cases (extreme ints, empty strings, empty
// lists and records) drawn often.
func randValue(rng *rand.Rand, depth int) Value {
	kinds := 4
	if depth > 0 {
		kinds = 6
	}
	switch rng.Intn(kinds) {
	case 0:
		return Value{}
	case 1:
		switch rng.Intn(4) {
		case 0:
			return Int(math.MinInt64)
		case 1:
			return Int(math.MaxInt64)
		case 2:
			return Int(rng.Int63n(300) - 150)
		default:
			return Int(int64(rng.Uint64()))
		}
	case 2:
		b := make([]byte, rng.Intn(3)*rng.Intn(200))
		rng.Read(b)
		return Str(string(b))
	case 3:
		return Bool(rng.Intn(2) == 0)
	case 4:
		elems := make([]Value, rng.Intn(4))
		for i := range elems {
			elems[i] = randValue(rng, depth-1)
		}
		return List(elems...)
	default:
		fields := map[string]Value{}
		for i, n := 0, rng.Intn(5); i < n; i++ {
			fields[string(rune('a'+rng.Intn(20)))+string(make([]byte, rng.Intn(2)))] = randValue(rng, depth-1)
		}
		return Record(fields)
	}
}

// TestBinaryRoundTrip: every kind, nested, round-trips through the codec to
// an Equal value, BinarySize is exact, and the decoder consumes exactly the
// encoding.
func TestBinaryRoundTrip(t *testing.T) {
	edge := []Value{
		{},
		Int(0), Int(-1), Int(math.MinInt64), Int(math.MaxInt64),
		Str(""), Str("héllo\x00"), Bool(true), Bool(false),
		List(), Record(nil),
		List(List(), Record(nil), Str("")),
		Record(map[string]Value{"": Int(1), "z": List(Record(map[string]Value{"x": Str("")}))}),
	}
	wide := map[string]Value{}
	for i := 0; i < 40; i++ {
		wide[string(rune('A'+i))] = Int(int64(i))
	}
	edge = append(edge, Record(wide))
	rng := rand.New(rand.NewSource(1))
	vals := edge
	for i := 0; i < 5000; i++ {
		vals = append(vals, randValue(rng, 4))
	}
	seen := map[Kind]bool{}
	for _, v := range vals {
		seen[v.Kind()] = true
		enc := AppendBinary(nil, v)
		if len(enc) != BinarySize(v) {
			t.Fatalf("%v: encoded %d bytes, BinarySize says %d", v, len(enc), BinarySize(v))
		}
		tail := []byte{0xde, 0xad}
		got, rest, err := ReadBinary(append(enc, tail...))
		if err != nil {
			t.Fatalf("%v: decode: %v", v, err)
		}
		if !got.Equal(v) || got.Kind() != v.Kind() {
			t.Fatalf("round trip: got %v, want %v", got, v)
		}
		if !bytes.Equal(rest, tail) {
			t.Fatalf("%v: decoder left %x, want %x", v, rest, tail)
		}
		if again := AppendBinary(nil, got); !bytes.Equal(again, enc) {
			t.Fatalf("%v: re-encoding differs: %x vs %x", v, again, enc)
		}
	}
	for _, k := range []Kind{KindInvalid, KindInt, KindString, KindBool, KindList, KindRecord} {
		if !seen[k] {
			t.Errorf("kind %v never generated", k)
		}
	}
}

// TestBinaryRecordOrderIndependent: equal records built in different field
// insertion orders encode byte-identically, also when nested.
func TestBinaryRecordOrderIndependent(t *testing.T) {
	names := []string{"w_id", "d_id", "c_id", "balance", "", "data", "ytd", "a"}
	build := func(order []int) Value {
		var r Value
		for _, i := range order {
			r = r.WithField(names[i], Int(int64(i)))
		}
		return List(r, Record(map[string]Value{"inner": r}))
	}
	want := AppendBinary(nil, build([]int{0, 1, 2, 3, 4, 5, 6, 7}))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		order := rng.Perm(len(names))
		if got := AppendBinary(nil, build(order)); !bytes.Equal(got, want) {
			t.Fatalf("insertion order %v encodes to %x, want %x", order, got, want)
		}
	}
}

// TestReadBinaryRejectsMalformed: truncations, unknown kinds, bad bools,
// padded varints, non-canonical field order and impossible counts are
// errors, not panics or silent misreads.
func TestReadBinaryRejectsMalformed(t *testing.T) {
	v := Record(map[string]Value{"a": List(Int(-7), Str("xyz"), Bool(true)), "b": Int(math.MinInt64)})
	enc := AppendBinary(nil, v)
	for i := 0; i < len(enc); i++ {
		if _, _, err := ReadBinary(enc[:i]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", i, len(enc))
		}
	}
	bad := map[string][]byte{
		"unknown kind":        {byte(KindRecord) + 1},
		"bool 2":              {byte(KindBool), 2},
		"padded varint":       {byte(KindInt), 0x80, 0x00},
		"varint overflow":     {byte(KindInt), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"string overrun":      {byte(KindString), 5, 'a'},
		"huge list count":     {byte(KindList), 0xff, 0xff, 0xff, 0xff, 0x0f},
		"fields out of order": {byte(KindRecord), 2, 1, 'b', byte(KindInvalid), 1, 'a', byte(KindInvalid)},
		"repeated field":      {byte(KindRecord), 2, 1, 'a', byte(KindInvalid), 1, 'a', byte(KindInvalid)},
	}
	for name, b := range bad {
		if got, _, err := ReadBinary(b); err == nil {
			t.Errorf("%s: decoded %v without error", name, got)
		}
	}
}

func BenchmarkAppendBinaryRecord(b *testing.B) {
	v := Record(map[string]Value{
		"id": Int(12345), "name": Str("user-12345"), "rating": Int(3),
		"balance": Int(-250), "region": Int(7), "bids": List(Int(1), Int(2)),
	})
	buf := make([]byte, 0, BinarySize(v))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendBinary(buf[:0], v)
	}
}
