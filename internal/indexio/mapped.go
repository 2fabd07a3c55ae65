package indexio

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"genax/internal/dna"
	"genax/internal/seed"
)

// Mapped is an index cache opened in place. Index() and Ref() are zero-copy
// views into the mapping (or into one heap buffer on platforms without
// mmap): nothing is deserialized, so opening costs O(header) regardless of
// genome size, the OS demand-faults only the pages lookups touch, and
// concurrent processes aligning against the same cache share one physical
// copy of the tables.
//
// Lifetime contract (the mapped flavor of //genax:borrowed): every slice
// reachable from Index() and Ref() borrows the mapping. Close unmaps it,
// so Close must only be called after every pipeline consuming the index
// has fully drained — lanes park no references between batches, but a
// Close racing an in-flight batch is a use-after-unmap. The CLIs close on
// exit after AlignBatch/AlignStream return; tests that need earlier
// teardown must join their pipelines first.
type Mapped struct {
	data   []byte
	hdr    *header
	sx     *seed.SegmentedIndex
	ref    dna.Seq
	mapped bool // true when data is an mmap, false when a heap fallback
	closed bool
}

// OpenMapped opens the cache at path for in-place use. The header CRC and
// section-table bounds are verified; section bodies are NOT summed or
// scanned (that would fault in every page and defeat the lazy load — call
// Verify for a full check). Corruption in unsummed table bytes is contained
// by the seed package's clamp-safe lookup and by the one-load sentinel
// check per segment done here (see the integrity ladder in format.go).
//
// OpenMapped itself only proves internal consistency; Open also pins the
// mapping to the reference and geometry in hand.
func OpenMapped(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("indexio: file size %d exceeds address space", size)
	}
	m := &Mapped{}
	if mmapSupported && hostLittleEndian {
		m.data, err = mmapFile(f, int(size))
		if err == nil {
			m.mapped = true
		}
	}
	if !m.mapped {
		// No mmap (platform) or no zero-copy views (byte order): fall back
		// to one heap read. Views still borrow from this single buffer when
		// the host is little-endian; otherwise bind decodes the tables.
		m.data, err = io.ReadAll(f)
		if err != nil {
			return nil, err
		}
	}
	fail := func(err error) (*Mapped, error) {
		_ = m.Close()
		return nil, err
	}
	h, err := parseHeader(m.data, int64(len(m.data)))
	if err != nil {
		return fail(err)
	}
	m.hdr = h
	refSec := h.sections[0]
	m.ref = seqView(m.data[refSec.off : refSec.off+refSec.len])
	if m.sx, err = h.bind(m.data, m.ref); err != nil {
		return fail(err)
	}
	return m, nil
}

// Index returns the segmented index viewing the mapping. Borrowed: valid
// until Close.
func (m *Mapped) Index() *seed.SegmentedIndex { return m.sx }

// Ref returns the stored reference as a zero-copy view. Borrowed: valid
// until Close.
func (m *Mapped) Ref() dna.Seq { return m.ref }

// RefHash returns the reference hash pinned in the header.
func (m *Mapped) RefHash() uint64 { return m.hdr.refHash }

// K, SegLen, and Overlap expose the stored geometry so callers can check
// their flags against the file before aligning.
func (m *Mapped) K() int       { return m.hdr.k }
func (m *Mapped) SegLen() int  { return m.hdr.segLen }
func (m *Mapped) Overlap() int { return m.hdr.overlap }

// SizeBytes returns the byte size of the backing file/mapping.
func (m *Mapped) SizeBytes() int { return len(m.data) }

// ShardGroupSize returns the header's residency partition: segments per
// shard group.
func (m *Mapped) ShardGroupSize() int { return m.hdr.groupSize }

// NumShardGroups returns the number of shard groups.
func (m *Mapped) NumShardGroups() int { return m.hdr.numShardGroups() }

// GroupOf returns the shard group segment seg belongs to.
func (m *Mapped) GroupOf(seg int) int { return seg / m.hdr.groupSize }

// groupBytes returns the contiguous byte range holding every section of
// shard group g (segment sections are laid out in ascending id order, so a
// group is one run of pages, padding included).
func (m *Mapped) groupBytes(g int) []byte {
	gs := m.hdr.groupSize
	first, last := g*gs, min((g+1)*gs, m.hdr.numSegs)-1
	lo, hi := m.hdr.segSections(first)[0], m.hdr.segSections(last)[sectionsPerSeg-1]
	return m.data[lo.off:min(alignUp(int(hi.off+hi.len)), len(m.data))]
}

// adviseGroup passes residency advice for one shard group to the kernel.
// Advisory only — see mmap_linux.go — and a no-op on the heap fallback.
func (m *Mapped) adviseGroup(g int, resident bool) {
	if !m.mapped || g < 0 || g >= m.NumShardGroups() {
		return
	}
	if resident {
		adviseWillNeed(m.groupBytes(g))
	} else {
		adviseDontNeed(m.groupBytes(g))
	}
}

// Verify checks every section body against its header CRC and every
// segment's tables against the full structural invariants — the eager
// integrity pass OpenMapped deliberately skips. It faults in the whole
// file; use it from `genax index -verify` or before trusting a cache of
// unknown provenance, not on the serving path.
func (m *Mapped) Verify() error {
	if m.closed {
		return fmt.Errorf("indexio: Verify on closed mapping")
	}
	for i, s := range m.hdr.sections {
		if got := crc32.ChecksumIEEE(m.data[s.off : s.off+s.len]); got != s.crc {
			return fmt.Errorf("indexio: section %d (kind %d, seg %d) checksum mismatch (header %08x, computed %08x)", i, s.kind, s.seg, s.crc, got)
		}
	}
	for id, si := range m.sx.Samples {
		if err := si.ValidateTables(); err != nil {
			return fmt.Errorf("indexio: segment %d: %w", id, err)
		}
	}
	return nil
}

// Close releases the mapping. Every view handed out by Index()/Ref() is
// invalid afterwards; callers must drain all pipelines first (see the type
// comment). Idempotent.
func (m *Mapped) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	data := m.data
	m.data, m.sx, m.ref, m.hdr = nil, nil, nil, nil
	if m.mapped {
		return munmap(data)
	}
	return nil
}
