package tensor

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary serialization for tensors: a tiny, versioned, little-endian
// format used to persist trained model parameters (the analogue of the
// artifact's saved_models/ directory).
//
//	magic   uint32 = 0x54475431 ("TGT1")
//	rank    uint32
//	shape   [rank]uint32
//	data    [n]float32

const tensorMagic uint32 = 0x54475431

// WriteTo serializes the tensor to w and returns the number of bytes
// written.
func (t *Tensor) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	put32 := func(v uint32) error {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], v)
		k, err := bw.Write(buf[:])
		n += int64(k)
		return err
	}
	if err := put32(tensorMagic); err != nil {
		return n, err
	}
	if err := put32(uint32(len(t.shape))); err != nil {
		return n, err
	}
	for _, d := range t.shape {
		if err := put32(uint32(d)); err != nil {
			return n, err
		}
	}
	buf := make([]byte, 4*len(t.data))
	for i, v := range t.data {
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
	}
	k, err := bw.Write(buf)
	n += int64(k)
	if err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// ReadFrom deserializes a tensor written by WriteTo, replacing t's shape
// and contents.
func (t *Tensor) ReadFrom(r io.Reader) (int64, error) {
	br := bufio.NewReader(r)
	var n int64
	get32 := func() (uint32, error) {
		var buf [4]byte
		k, err := io.ReadFull(br, buf[:])
		n += int64(k)
		return binary.LittleEndian.Uint32(buf[:]), err
	}
	magic, err := get32()
	if err != nil {
		return n, err
	}
	if magic != tensorMagic {
		return n, fmt.Errorf("tensor: bad magic %#x", magic)
	}
	rank, err := get32()
	if err != nil {
		return n, err
	}
	if rank == 0 || rank > 8 {
		return n, fmt.Errorf("tensor: implausible rank %d", rank)
	}
	shape := make([]int, rank)
	elems := 1
	for i := range shape {
		d, err := get32()
		if err != nil {
			return n, err
		}
		if d > 1<<28 {
			return n, fmt.Errorf("tensor: implausible dimension %d", d)
		}
		shape[i] = int(d)
		elems *= int(d)
		// Bound the product as it grows: a hostile header with several
		// large dimensions must not overflow int (negative make() size
		// panics) or drive a giant allocation.
		if elems > 1<<28 {
			return n, fmt.Errorf("tensor: implausible element count %v", shape[:i+1])
		}
	}
	buf := make([]byte, 4*elems)
	k, err := io.ReadFull(br, buf)
	n += int64(k)
	if err != nil {
		return n, err
	}
	data := make([]float32, elems)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
	}
	t.shape = shape
	t.data = data
	return n, nil
}
