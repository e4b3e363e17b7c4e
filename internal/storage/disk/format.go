package disk

import (
	"fmt"
	"hash/crc32"

	"repro/internal/seq"
	"repro/internal/storage"
)

// On-disk constants. The page-file header occupies the first pageSize
// bytes of every .spf file; data page p lives at offset (1+p)*pageSize.
const (
	// pageFileMagic opens every page file. The trailing digit is the
	// format generation; bump formatVersion (not the magic) for
	// compatible evolution.
	pageFileMagic = "SEQPF1\x00\x00"
	// formatVersion is the page-file format version this build writes
	// and the only one it accepts.
	formatVersion = 1

	// DefaultPageSize is the page size used when Config leaves it zero:
	// 8 KiB, matching the DefaultRecordsPerPage ≈ 100-byte-record
	// assumption documented in the storage package.
	DefaultPageSize = 8 << 10

	// minPageSize bounds configuration errors; a page must at least hold
	// its own header and one small record.
	minPageSize = 512

	// pageHeaderLen is the per-data-page prefix: u32 CRC32-C over the
	// payload, u32 payload length.
	pageHeaderLen = 8
)

// crcTable is the CRC32-C (Castagnoli) table used for every checksum in
// the format: data pages, WAL records, and the catalog.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frame is one decoded page resident in the buffer pool: the in-memory
// image of a pageRef. Frames are immutable once published — a write that
// would touch a page produces a new ref and a new frame (copy-on-write),
// so readers never observe mutation — and hand their Page to readers in
// place.
type frame struct {
	kind  storage.Kind
	epoch int64 // epoch of the write that created this page version
	storage.Page
}

// encodePageInto serializes a frame's header-prefixed encoding into w
// (whose buf must start with pageHeaderLen reserved bytes) and fails
// when the result exceeds pageSize — the record-too-large-for-page-size
// configuration error write paths must surface before WAL-logging.
func encodePageInto(w *writer, f *frame, pageSize int) error {
	w.byte(byte(f.kind))
	w.varint(f.epoch)
	switch f.kind {
	case storage.KindSparse:
		w.entries(f.Entries)
	case storage.KindDense:
		w.varint(f.First)
		w.uvarint(uint64(len(f.Slots)))
		for _, r := range f.Slots {
			w.record(r)
		}
	default:
		return fmt.Errorf("disk: unknown page kind %v", f.kind)
	}
	if len(w.buf) > pageSize {
		return fmt.Errorf("disk: encoded page of %d bytes exceeds page size %d (raise PageSize or shrink records)",
			len(w.buf), pageSize)
	}
	return nil
}

// checkPageFits verifies that a frame encodes within pageSize, without
// materializing the padded page image. Write paths call it before
// logging to the WAL: an unencodable frame must fail the operation, not
// poison every later writeback and checkpoint.
func checkPageFits(f *frame, pageSize int) error {
	w := &writer{buf: make([]byte, pageHeaderLen, pageSize)}
	return encodePageInto(w, f, pageSize)
}

// encodePage serializes a frame into a page image of exactly pageSize
// bytes: [u32 CRC][u32 len][payload][zero padding].
func encodePage(f *frame, pageSize int) ([]byte, error) {
	w := &writer{buf: make([]byte, pageHeaderLen, pageSize)}
	if err := encodePageInto(w, f, pageSize); err != nil {
		return nil, err
	}
	payload := w.buf[pageHeaderLen:]
	putU32(w.buf[0:4], crc32.Checksum(payload, crcTable))
	putU32(w.buf[4:8], uint32(len(payload)))
	page := make([]byte, pageSize)
	copy(page, w.buf)
	return page, nil
}

// decodePage parses and verifies one page image. A CRC or structure
// failure returns an error — the caller treats it as page corruption.
func decodePage(page []byte) (*frame, error) {
	if len(page) < pageHeaderLen {
		return nil, fmt.Errorf("disk: short page of %d bytes", len(page))
	}
	want := getU32(page[0:4])
	n := getU32(page[4:8])
	if int(n) > len(page)-pageHeaderLen {
		return nil, fmt.Errorf("disk: page payload length %d exceeds page", n)
	}
	payload := page[pageHeaderLen : pageHeaderLen+int(n)]
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("disk: page CRC mismatch (want %08x, got %08x)", want, got)
	}
	r := &reader{buf: payload}
	f := &frame{kind: storage.Kind(r.byte())}
	f.epoch = r.varint()
	switch f.kind {
	case storage.KindSparse:
		f.Entries = r.entriesRun(1 << 24)
		if len(f.Entries) > 0 {
			f.First = f.Entries[0].Pos
		}
	case storage.KindDense:
		f.First = r.varint()
		nslots := r.count("slot", 1<<24)
		f.Slots = make([]seq.Record, nslots)
		for i := range f.Slots {
			f.Slots[i] = r.record()
		}
	default:
		return nil, fmt.Errorf("disk: unknown page kind %d", uint8(f.kind))
	}
	if r.err != nil {
		return nil, fmt.Errorf("disk: corrupt page: %w", r.err)
	}
	return f, nil
}

// encodeFileHeader builds the header page of a page file.
func encodeFileHeader(pageSize int) []byte {
	page := make([]byte, pageSize)
	copy(page, pageFileMagic)
	putU32(page[8:12], formatVersion)
	putU32(page[12:16], uint32(pageSize))
	putU32(page[16:20], crc32.Checksum(page[:16], crcTable))
	return page
}

// checkFileHeader validates a page-file header against the expected
// page size.
func checkFileHeader(page []byte, pageSize int) error {
	if len(page) < 20 {
		return fmt.Errorf("disk: short page-file header")
	}
	if string(page[:8]) != pageFileMagic {
		return fmt.Errorf("disk: bad page-file magic")
	}
	if got := crc32.Checksum(page[:16], crcTable); got != getU32(page[16:20]) {
		return fmt.Errorf("disk: page-file header CRC mismatch")
	}
	if v := getU32(page[8:12]); v != formatVersion {
		return fmt.Errorf("disk: page-file format version %d (this build reads %d)", v, formatVersion)
	}
	if ps := getU32(page[12:16]); int(ps) != pageSize {
		return fmt.Errorf("disk: page-file page size %d does not match catalog page size %d", ps, pageSize)
	}
	return nil
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

func getU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
