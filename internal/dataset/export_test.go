package dataset

// FastDecoder exposes ReadStream's fast path to the external tests,
// which crawl to get their input (the crawler imports this package).
type FastDecoder struct{ d *lineDecoder }

// NewFastDecoder returns a decoder with the per-stream state of one
// ReadStream call.
func NewFastDecoder() *FastDecoder { return &FastDecoder{newLineDecoder()} }

// Decode decodes one line on the fast path alone; ok is false when the
// fast path declines the line, which ReadStream would then hand to
// encoding/json.
func (f *FastDecoder) Decode(line []byte) (rec *SiteRecord, ok bool) {
	rec = new(SiteRecord)
	return rec, f.d.decode(line, rec)
}

// ChunkBytes is the size cap of a Store chunk.
const ChunkBytes = chunkBytes
