package indexio

import (
	"encoding/binary"
	"unsafe"

	"genax/internal/dna"
)

// The tables are stored little-endian and element-aligned (sections start
// on 4 KiB boundaries), so on a little-endian host a stored table can be
// *viewed* as its Go slice type without copying or decoding — the whole
// point of the mapped load path. On a big-endian host the views would read
// garbage, so every caller gates on hostLittleEndian and falls back to the
// copying decoder below.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// word is the element type of a stored table.
type word interface{ int32 | uint32 | uint64 }

func wordSize[T word]() int { return int(unsafe.Sizeof(*new(T))) }

// viewWords reinterprets b (little-endian, element-aligned) as []T in place.
func viewWords[T word](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/wordSize[T]())
}

// seqView reinterprets b as a dna.Seq in place; dna.Base is a byte code,
// so this view is endian-independent.
func seqView(b []byte) dna.Seq {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*dna.Base)(unsafe.Pointer(&b[0])), len(b))
}

// decodeWords copies b into a fresh heap []T. On little-endian hosts the
// copy is one memmove through a view of the source.
func decodeWords[T word](b []byte) []T {
	size := wordSize[T]()
	out := make([]T, len(b)/size)
	if hostLittleEndian {
		copy(out, viewWords[T](b))
		return out
	}
	for i := range out {
		if size == 4 {
			out[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
		} else {
			out[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return out
}
