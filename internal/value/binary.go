package value

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
)

// Compact binary codec. A value is its Kind as one byte followed by a
// kind-specific payload:
//
//	int     zig-zag varint
//	string  uvarint length, then the bytes
//	bool    one byte, 0 or 1
//	list    uvarint count, then count values
//	record  uvarint count, then count (uvarint name length, name bytes,
//	        value) fields in ascending name order
//	invalid no payload
//
// Record fields are written in sorted order, so equal values encode to equal
// bytes regardless of map iteration order — the property replica snapshots
// rely on to be byte-identical on every replica. Decoding accepts only that
// canonical field order (a repeated or out-of-order name is an error), so
// every accepted encoding is the encoding of exactly one value.

var errTruncated = errors.New("value: binary encoding truncated")

// BinarySize returns the exact number of bytes AppendBinary appends for v.
func BinarySize(v Value) int {
	n := 1
	switch v.kind {
	case KindInt:
		n += UvarintSize(zigzag(v.i))
	case KindString:
		n += StringSize(v.s)
	case KindBool:
		n++
	case KindList:
		n += UvarintSize(uint64(len(v.list)))
		for _, e := range v.list {
			n += BinarySize(e)
		}
	case KindRecord:
		n += UvarintSize(uint64(len(v.rec)))
		for k, e := range v.rec {
			n += StringSize(k) + BinarySize(e)
		}
	}
	return n
}

// AppendBinary appends v's compact binary encoding to dst.
func AppendBinary(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindInt:
		dst = binary.AppendUvarint(dst, zigzag(v.i))
	case KindString:
		dst = AppendString(dst, v.s)
	case KindBool:
		dst = append(dst, byte(boolInt(v.b)))
	case KindList:
		dst = binary.AppendUvarint(dst, uint64(len(v.list)))
		for _, e := range v.list {
			dst = AppendBinary(dst, e)
		}
	case KindRecord:
		// Records are small (a handful of columns): sorting the names in a
		// stack buffer keeps the common case allocation-free.
		var buf [16]string
		names := buf[:0]
		for k := range v.rec {
			names = append(names, k)
		}
		slices.Sort(names)
		dst = binary.AppendUvarint(dst, uint64(len(names)))
		for _, k := range names {
			dst = AppendString(dst, k)
			dst = AppendBinary(dst, v.rec[k])
		}
	}
	return dst
}

// ReadBinary decodes one value from the front of src and returns it with
// the bytes that follow it. Malformed or truncated input is an error, never
// a panic.
func ReadBinary(src []byte) (Value, []byte, error) {
	if len(src) == 0 {
		return Value{}, nil, errTruncated
	}
	kind, src := Kind(src[0]), src[1:]
	switch kind {
	case KindInvalid:
		return Value{}, src, nil
	case KindInt:
		u, rest, err := ReadUvarint(src)
		if err != nil {
			return Value{}, nil, err
		}
		return Int(int64(u>>1) ^ -int64(u&1)), rest, nil
	case KindString:
		s, rest, err := ReadString(src)
		if err != nil {
			return Value{}, nil, err
		}
		return Str(s), rest, nil
	case KindBool:
		if len(src) == 0 {
			return Value{}, nil, errTruncated
		}
		if src[0] > 1 {
			return Value{}, nil, errors.New("value: binary bool is neither 0 nor 1")
		}
		return Bool(src[0] == 1), src[1:], nil
	case KindList:
		n, rest, err := readCount(src, 1)
		if err != nil {
			return Value{}, nil, err
		}
		elems := make([]Value, n)
		for i := range elems {
			if elems[i], rest, err = ReadBinary(rest); err != nil {
				return Value{}, nil, err
			}
		}
		return Value{kind: KindList, list: elems}, rest, nil
	case KindRecord:
		n, rest, err := readCount(src, 2)
		if err != nil {
			return Value{}, nil, err
		}
		rec := make(map[string]Value, n)
		prev := ""
		for i := 0; i < n; i++ {
			var name string
			if name, rest, err = ReadString(rest); err != nil {
				return Value{}, nil, err
			}
			if i > 0 && name <= prev {
				return Value{}, nil, errors.New("value: binary record fields not in ascending order")
			}
			prev = name
			if rec[name], rest, err = ReadBinary(rest); err != nil {
				return Value{}, nil, err
			}
		}
		return Value{kind: KindRecord, rec: rec}, rest, nil
	default:
		return Value{}, nil, errors.New("value: binary encoding has an unknown kind")
	}
}

// ReadUvarint decodes one minimally encoded uvarint from the front of src,
// returning it with the bytes that follow.
func ReadUvarint(src []byte) (uint64, []byte, error) {
	u, n := binary.Uvarint(src)
	switch {
	case n == 0:
		return 0, nil, errTruncated
	case n < 0:
		return 0, nil, errors.New("value: binary varint overflows 64 bits")
	case n != UvarintSize(u):
		// A padded varint would give one value two encodings.
		return 0, nil, errors.New("value: binary varint not minimally encoded")
	}
	return u, src[n:], nil
}

// ReadString decodes one length-prefixed string (as AppendBinary writes
// strings and record field names) from the front of src.
func ReadString(src []byte) (string, []byte, error) {
	n, rest, err := ReadUvarint(src)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(rest)) {
		return "", nil, errTruncated
	}
	return string(rest[:n]), rest[n:], nil
}

// AppendString appends s length-prefixed, the form ReadString decodes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// StringSize returns the number of bytes AppendString appends for s.
func StringSize(s string) int { return UvarintSize(uint64(len(s))) + len(s) }

// UvarintSize returns the number of bytes binary.AppendUvarint appends for x.
func UvarintSize(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// readCount decodes an element count and rejects one that the remaining
// input cannot possibly hold (each element takes at least minBytes), so a
// corrupt count never drives a huge allocation.
func readCount(src []byte, minBytes int) (int, []byte, error) {
	n, rest, err := ReadUvarint(src)
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(rest)/minBytes) {
		return 0, nil, errTruncated
	}
	return int(n), rest, nil
}

func zigzag(i int64) uint64 { return uint64(i<<1) ^ uint64(i>>63) }
