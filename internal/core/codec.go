package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"tgopt/internal/tensor"
)

// QuantMode selects the format of rows at rest (DESIGN.md §14). It is a
// serve-time choice, not a model property: the same float32 weights
// compute every row in either mode.
type QuantMode int

const (
	// QuantOff stores float32 rows: what an engine serves is bitwise the
	// baseline.
	QuantOff QuantMode = iota
	// QuantInt8 stores memo-cache entries (in RAM and in snapshots)
	// and the precomputed time table as one float32 scale +
	// int8 codes per row, encoded on store and dequantized on read. The
	// payload is 4+d bytes against 4·d (3.56× at d = 32, 3.84× at 96);
	// with the 64 accounted bytes of per-entry bookkeeping a byte budget
	// holds 1.92× the entries at d = 32 and 2.73× at d = 96.
	QuantInt8
)

// String returns the operator-facing name (-quant flag values).
func (m QuantMode) String() string {
	if m == QuantInt8 {
		return "int8"
	}
	return "float32"
}

// ParseQuantMode parses a -quant flag value.
func ParseQuantMode(s string) (QuantMode, error) {
	switch s {
	case "", "off", "float32", "fp32":
		return QuantOff, nil
	case "int8":
		return QuantInt8, nil
	}
	return QuantOff, fmt.Errorf("core: unknown quant mode %q (want float32 or int8)", s)
}

// entryCodec fixes the serialized embedding format shared by the memo
// cache's payloads and the snapshot blobs. Two formats exist:
//
//	float32: dim × little-endian float32     (4·dim bytes)
//	int8:    scale float32, dim × int8 codes (4 + dim bytes)
//
// The int8 payload is per-vector symmetric quantization: code c
// reconstructs as scale·c, the max-magnitude element maps to ±127.
type entryCodec struct {
	dim   int
	quant bool
}

// payloadSize returns the serialized embedding size in bytes.
func (c entryCodec) payloadSize() int {
	if c.quant {
		return 4 + c.dim
	}
	return 4 * c.dim
}

// entryBytes returns the accounted in-RAM footprint of one entry:
// payload plus per-item bookkeeping (see cacheEntryOverhead).
func (c entryCodec) entryBytes() int { return c.payloadSize() + cacheEntryOverhead }

// encode serializes vec into dst (len ≥ payloadSize).
func (c entryCodec) encode(vec []float32, dst []byte) {
	if c.quant {
		scale := tensor.QuantizeVecBytes(vec, dst[4:c.payloadSize()])
		binary.LittleEndian.PutUint32(dst[:4], math.Float32bits(scale))
		return
	}
	for i, x := range vec {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(x))
	}
}

// appendTo appends vec's serialized payload to buf.
func (c entryCodec) appendTo(buf []byte, vec []float32) []byte {
	n := len(buf)
	buf = slices.Grow(buf, c.payloadSize())[:n+c.payloadSize()]
	c.encode(vec, buf[n:])
	return buf
}

// decode reconstructs a payload into dst (len ≥ dim).
func (c entryCodec) decode(payload []byte, dst []float32) {
	if c.quant {
		scale := math.Float32frombits(binary.LittleEndian.Uint32(payload[:4]))
		tensor.DequantizeVecBytes(payload[4:4+c.dim], scale, dst[:c.dim])
		return
	}
	for i := 0; i < c.dim; i++ {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
}
