// Package store provides the flat key-value layer that backs persisted
// tries, code blobs, blocks and head pointers. Two implementations share
// one interface: MemStore (a mutex-guarded map, for tests and ephemeral
// nodes) and FileStore (a single append-only log with an in-memory
// directory of offsets, batched writes, checksummed records, crash
// salvage and compaction on reopen).
//
// The store is deliberately dumber than a real database: trie nodes are
// content-addressed (key = Keccak of the value) so records are immutable
// and an append log with last-write-wins replay is a correct index. The
// only mutable keys are small pointers (the chain head), which simply
// append a new record. Neither store drops a record by itself: a
// superseded trie node may still be referenced, so only the store's
// owner knows what is dead, and Compact keeps what it names (the
// chain's sweep).
//
// The log is the only copy of what it holds (the Bitcask design: Sheehy
// & Smith, 2010). A Batch is the finished records themselves, so a
// commit is one copy into the batch and one write(2) of it; the index
// (directory) maps a key to its newest record's {offset, length} and
// holds no bytes: 70-100 B of RAM per trie node, in a map the GC never
// scans. Get is one pread of the record, which must pass its CRC and
// carry the key asked for: a record damaged on disk reads as a miss,
// never as wrong bytes.
//
// On-disk format (SKV3): a 5-byte magic followed by records of
// `uvarint(len key) || key || uvarint(len value) || value || crc32`,
// where the CRC (IEEE, little-endian) covers the record bytes before
// it. Keys are shorter than 64 bytes, and bit 6 of a key length marks a
// record more of its batch follows: reopen indexes a batch only once its
// last record verifies (LevelDB's log rule), so a Write survives a crash
// whole or not at all. The CRC lets reopen distinguish a torn trailing
// batch (truncate it) from mid-log corruption (scan ahead to the next
// valid record, quarantine the damaged range, keep every later record).
// An SKV2 log (one-record batches) opens as it is, restamped SKV3 so
// that SKV2 readers refuse the batches that follow.
package store

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// Store is the flat-KV surface the state and chain layers commit
// through. Writes arrive either singly (Put) or as a Batch flushed in
// one append (Write); both are atomic with respect to Get and a crash.
type Store interface {
	// Get returns the value stored under key and whether it exists.
	Get(key []byte) ([]byte, bool)
	// Put stores a single key/value pair.
	Put(key, value []byte) error
	// Write applies every pair in the batch as one append, all or nothing.
	Write(b *Batch) error
	// Compact keeps the newest record of every key keep accepts (of
	// every key, for a nil keep) and drops the rest, all or nothing.
	Compact(keep func(key []byte) bool) (CompactStats, error)
	// Close flushes and releases the store.
	Close() error
}

// Syncer is implemented by stores with an explicit durability point;
// everything written before a successful Sync survives a crash.
type Syncer interface {
	Sync() error
}

// Salvager is implemented by stores that can report what reopen had to
// repair. chain.Open uses a dirty report to trigger head verification.
type Salvager interface {
	Salvage() SalvageReport
}

// Batch accumulates records for a single Write. It satisfies
// trie.Writer so a trie commit can stage node encodings directly. It is
// the bytes Write appends: Put encodes each record once, into a buffer
// Reset keeps, so a reused batch stages without allocating.
type Batch struct {
	buf     []byte // finished SKV3 records, back to back
	recs    []span // one per record, in Put order
	payload int
}

// span locates one record, and its key and value, in Batch.buf.
type span struct {
	off, klen, vlen int
}

// Put stages a pair, marked as followed by more of the batch. Key and
// value are copied, so callers may reuse their buffers. A key of
// maxKeyLen bytes or more panics.
func (b *Batch) Put(key, value []byte) {
	if len(key) >= maxKeyLen {
		panic(fmt.Sprintf("store: %d-byte key", len(key)))
	}
	if n := len(b.recs); n > 0 { // the end of a batch written already
		setMore(b.buf[b.recs[n-1].off:], true)
	}
	b.recs = append(b.recs, span{len(b.buf), len(key), len(value)})
	b.buf = appendRecord(b.buf, key, value)
	b.payload += len(key) + len(value)
}

// sealed returns the records Write appends: its last one ends the batch.
func (b *Batch) sealed() []byte {
	if n := len(b.recs); n > 0 {
		setMore(b.buf[b.recs[n-1].off:], false)
	}
	return b.buf
}

// Len returns the number of staged pairs.
func (b *Batch) Len() int { return len(b.recs) }

// Size returns the staged payload bytes (keys + values).
func (b *Batch) Size() int { return b.payload }

// LogBytes returns the bytes a FileStore's Write appends for the batch:
// its records, with their framing and checksums.
func (b *Batch) LogBytes() int { return len(b.buf) }

// Reset empties the batch for reuse.
func (b *Batch) Reset() { b.buf, b.recs, b.payload = b.buf[:0], b.recs[:0], 0 }

// record returns the i-th staged pair, aliasing the batch's buffer, and
// the length of its record.
func (b *Batch) record(i int) (key, val []byte, size int) {
	r := b.recs[i]
	k := r.off + uvarintLen(uint64(r.klen))
	v := k + r.klen + uvarintLen(uint64(r.vlen))
	return b.buf[k : k+r.klen], b.buf[v : v+r.vlen], v + r.vlen + crcSize - r.off
}

// MemStore is an in-memory Store.
type MemStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *MemStore { return &MemStore{m: make(map[string][]byte)} }

// Get returns the value stored under key.
func (s *MemStore) Get(key []byte) ([]byte, bool) {
	s.mu.RLock()
	v, ok := s.m[string(key)]
	s.mu.RUnlock()
	return v, ok
}

// Put stores one pair.
func (s *MemStore) Put(key, value []byte) error {
	v := make([]byte, len(value))
	copy(v, value)
	s.mu.Lock()
	s.m[string(key)] = v
	s.mu.Unlock()
	return nil
}

// Write applies a batch.
func (s *MemStore) Write(b *Batch) error {
	s.mu.Lock()
	for i := range b.recs {
		key, val, _ := b.record(i)
		s.m[string(key)] = bytes.Clone(val)
	}
	s.mu.Unlock()
	return nil
}

// Len returns the number of live keys.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Close is a no-op for the in-memory store.
func (s *MemStore) Close() error { return nil }

// Compact deletes every key keep rejects.
func (s *MemStore) Compact(keep func(key []byte) bool) (CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	maps.DeleteFunc(s.m, func(k string, _ []byte) bool { return keep != nil && !keep([]byte(k)) })
	return CompactStats{Records: len(s.m)}, nil
}

// SalvageReport describes what reopen had to repair to produce a
// consistent index. A zero report means the log was clean.
type SalvageReport struct {
	// Records is how many records replayed into the index.
	Records int
	// TornBytes is the length of the truncated trailing partial batch
	// (a crash mid-append).
	TornBytes int64
	// Corrected counts records restored by single-bit CRC correction:
	// the damaged range parsed as exactly one record under one bit
	// flip whose checksum then matched.
	Corrected int
	// Quarantined counts mid-log damaged ranges that were skipped by
	// scanning ahead to the next CRC-valid record.
	Quarantined int
	// QuarantinedBytes is the total length of those skipped ranges.
	QuarantinedBytes int64
	// TmpRemoved marks a leftover compaction temp file from a crash
	// between tmp-write and rename; the main log stayed authoritative.
	TmpRemoved bool
	// Compacted marks that open rewrote the log (quarantine cleanup).
	Compacted bool
}

// Dirty reports whether reopen found damage (as opposed to a clean
// log). Consumers such as chain.Open use it to
// decide whether the head must be re-verified.
func (r SalvageReport) Dirty() bool {
	return r.TornBytes > 0 || r.Corrected > 0 || r.Quarantined > 0 || r.TmpRemoved
}

// CompactStats summarises one log compaction.
type CompactStats struct {
	// BytesBefore/BytesAfter are the log sizes (excluding magic)
	// around the rewrite; zero for a MemStore.
	BytesBefore, BytesAfter int64
	// Records is the number of records kept.
	Records int
}

// FileStore is an append-only log with an in-memory directory of record
// offsets. Write appends a batch's records in a single file write; Sync
// is explicit so block-boundary commits can group durability points.
// Reopen replays the log (last write wins), verifying each record's CRC:
// a torn trailing batch is truncated, mid-log corruption is quarantined
// by resyncing to the next valid record. Nothing else leaves the log
// until its owner compacts it, naming what to keep.
type FileStore struct {
	mu   sync.RWMutex
	dir  directory
	f    *os.File
	path string

	size       int64 // file size (magic + log bytes)
	syncedSize int64 // file size at the last Sync (durability horizon)
	closed     bool

	salvage SalvageReport
}

// loc is where a record lies in the log: the offset of its first byte
// and its whole length, CRC included.
type loc struct {
	off, n int64
}

// directory is the index: where the newest record of every key lies.
// Keys as long as a trie node's, the Keccak of its encoding — all but a
// few hundred — get a map keyed by an array: no string header per key,
// no pointer for the GC.
type directory struct {
	nodes map[[32]byte]loc
	small map[string]*loc // block bodies, code blobs, the head pointer
}

func newDirectory(nodes, small int) directory {
	return directory{nodes: make(map[[32]byte]loc, nodes), small: make(map[string]*loc, small)}
}

func (d *directory) len() int { return len(d.nodes) + len(d.small) }

func (d *directory) get(key []byte) (l loc, ok bool) {
	if len(key) == 32 {
		l, ok = d.nodes[[32]byte(key)]
	} else if e := d.small[string(key)]; e != nil {
		l, ok = *e, true
	}
	return l, ok
}

// put points key at its newest record. Overwrites allocate nothing.
func (d *directory) put(key []byte, l loc) {
	if len(key) == 32 {
		d.nodes[[32]byte(key)] = l
		return
	}
	if e, ok := d.small[string(key)]; ok {
		*e = l // assigning to the map would allocate the key's string again
		return
	}
	d.small[string(key)] = &loc{l.off, l.n} // &l would move every call's l to the heap
}

// logMagic heads every store file; it versions the record format.
var logMagic, skv2Magic = []byte("SKV3\n"), []byte("SKV2\n")

// maxKeyLen is one more than the longest key: a key's length is the low
// six bits of its record's first byte, and moreBit the seventh.
const maxKeyLen, moreBit = 64, 0x40

// ErrNotStoreFile marks a file that does not start with the store magic.
var ErrNotStoreFile = errors.New("store: not a store file")

// ErrClosed is returned by writes against a closed store.
var ErrClosed = errors.New("store: closed")

// FileName is the log's name inside a datadir.
const FileName = "sereth.kv"

// TmpFileName is the compaction scratch file inside a datadir. A crash
// between writing it and the atomic rename leaves the main log
// authoritative; reopen discards the leftover.
const TmpFileName = FileName + ".tmp"

// crcSize is the per-record checksum trailer length.
const crcSize = 4

// OpenFile opens (or creates) the log under dir and replays it into the
// index. A torn trailing batch is truncated; mid-log corruption is
// quarantined and then rewritten to a clean log via compaction.
func OpenFile(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	tmpRemoved := false
	if err := os.Remove(filepath.Join(dir, TmpFileName)); err == nil {
		tmpRemoved = true
	}
	path := filepath.Join(dir, FileName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &FileStore{dir: newDirectory(0, 0), f: f, path: path}
	s.salvage.TmpRemoved = tmpRemoved
	if err := s.replay(); err != nil {
		_ = f.Close()
		return nil, err
	}
	if s.salvage.Quarantined > 0 || s.salvage.Corrected > 0 {
		// Rewrite to a clean log so the damage does not survive into
		// the next generation.
		if _, err := s.compactLocked(nil); err != nil {
			_ = s.f.Close()
			return nil, err
		}
		s.salvage.Compacted = true
	}
	return s, nil
}

// replay rebuilds the index from the log, a batch at a time. A clean
// file ends exactly at a batch boundary. A torn trailing batch (crash
// mid-append) is truncated away. A CRC failure in the middle of the log
// resyncs to the next valid record and quarantines the damaged range,
// which ends no batch, so later good records survive. The index keeps
// offsets: the file image, read in one allocation of the file's size,
// dies with replay.
func (s *FileStore) replay() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(s.f, data); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if len(data) == 0 {
		if _, err := s.f.Write(logMagic); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.size = int64(len(logMagic))
		s.syncedSize = s.size
		return nil
	}
	if bytes.HasPrefix(data, skv2Magic) {
		if _, err := s.f.WriteAt(logMagic, 0); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	} else if !bytes.HasPrefix(data, logMagic) {
		return ErrNotStoreFile
	}
	var batch []loc // the records, all verified, of the batch not yet ended
	off := len(logMagic)
	good := off
	for off < len(data) {
		_, _, next, more, ok := readRecord(data, off)
		if !ok {
			// Damaged or incomplete record at off. Scan ahead for the
			// next valid record: the damaged range is bounded either by
			// it or by EOF, which makes single-bit repair tractable; an
			// unrepairable mid-log range is quarantined, an unrepairable
			// tail is torn.
			resync := findResync(data, off+1)
			if next = resync; resync < 0 {
				next = len(data)
			}
			if more, ok = correctSingleBit(data, off, next); !ok && resync < 0 {
				break
			} else if !ok {
				s.salvage.Quarantined++
				s.salvage.QuarantinedBytes += int64(resync - off)
				off = resync
				continue
			}
			// The index points into the file, so the repair goes there
			// too: the compaction that follows copies what verifies.
			if _, err := s.f.WriteAt(data[off:next], int64(off)); err != nil {
				return fmt.Errorf("store: salvage: %w", err)
			}
			s.salvage.Corrected++
		}
		batch = append(batch, loc{int64(off), int64(next - off)})
		if off = next; !more {
			for _, l := range batch { // a record starts with its key's length and key
				s.dir.put(data[l.off+1:][:data[l.off]&^moreBit], l)
			}
			s.salvage.Records += len(batch)
			batch, good = batch[:0], off
		}
	}
	if good != len(data) {
		s.salvage.TornBytes = int64(len(data) - good)
		if err := s.f.Truncate(int64(good)); err != nil {
			return fmt.Errorf("store: salvage: %w", err)
		}
	}
	if _, err := s.f.Seek(int64(good), io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.size = int64(good)
	s.syncedSize = s.size
	return nil
}

// correctMaxBytes bounds the damaged range single-bit repair will
// brute-force; the attempt is O(range² · 8) in CRC work.
const correctMaxBytes = 1 << 16

// correctSingleBit tries to repair the damaged range data[off:end) as
// one record with exactly one flipped bit, and returns its more bit.
// CRC32 makes the check sound: a candidate flip must make the range
// parse as a record ending exactly at end with a matching checksum, so a
// false repair needs a ~2^-32 collision. The flip is applied to data in
// place; a torn tail can never pass, since no single flip invents
// missing bytes. Salvage-path only.
func correctSingleBit(data []byte, off, end int) (more, ok bool) {
	if end-off > correctMaxBytes {
		return false, false
	}
	for i := off; i < end; i++ {
		for bit := 0; bit < 8; bit++ {
			data[i] ^= 1 << bit
			if _, _, next, more, ok := readRecord(data, off); ok && next == end {
				return more, true
			}
			data[i] ^= 1 << bit
		}
	}
	return false, false
}

// findResync scans forward from off for the next offset that parses as
// a CRC-valid record, or -1 if none exists before EOF. Only called on
// corruption, so the quadratic worst case never sits on a hot path.
func findResync(data []byte, off int) int {
	for ; off < len(data); off++ {
		if _, _, _, _, ok := readRecord(data, off); ok {
			return off
		}
	}
	return -1
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// readRecord parses one record at off, and whether more of its batch
// follows; ok is false when the bytes do not form a complete record or
// fail the checksum.
func readRecord(data []byte, off int) (key, val []byte, next int, more, ok bool) {
	start := off
	klen, n := binary.Uvarint(data[off:])
	more, klen = klen&moreBit != 0, klen&^moreBit
	if n != 1 || uint64(len(data)-off-n) < klen { // a key length is one byte
		return nil, nil, 0, false, false
	}
	off += n
	key = data[off : off+int(klen)]
	off += int(klen)
	vlen, n := binary.Uvarint(data[off:])
	if n <= 0 || uint64(len(data)-off-n) < vlen {
		return nil, nil, 0, false, false
	}
	off += n
	val = data[off : off+int(vlen)]
	off += int(vlen)
	if len(data)-off < crcSize {
		return nil, nil, 0, false, false
	}
	want := binary.LittleEndian.Uint32(data[off:])
	if crc32.ChecksumIEEE(data[start:off]) != want {
		return nil, nil, 0, false, false
	}
	return key, val, off + crcSize, more, true
}

// appendRecord encodes one record (payload + CRC trailer), marked as
// followed by more of its batch.
func appendRecord(buf, key, val []byte) []byte {
	start := len(buf)
	buf = binary.AppendUvarint(buf, uint64(len(key))|moreBit)
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(val)))
	buf = append(buf, val...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// setMore sets or clears the more bit of rec, one whole record.
func setMore(rec []byte, more bool) {
	if end := len(rec) - crcSize; rec[0]&moreBit != 0 != more {
		rec[0] ^= moreBit
		binary.LittleEndian.PutUint32(rec[end:], crc32.ChecksumIEEE(rec[:end]))
	}
}

// Get returns the value stored under key. It holds the read lock across
// its one read of the file — compaction swaps the descriptor — and
// serves only what it checked: a record that fails its CRC or carries
// another key is a miss, as is every key once the store is closed.
func (s *FileStore) Get(key []byte) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false
	}
	if l, ok := s.dir.get(key); ok {
		return s.read(l, key)
	}
	return nil, false
}

// read returns the value of the record at l if it verifies and is key's.
func (s *FileStore) read(l loc, key []byte) ([]byte, bool) {
	rec := make([]byte, l.n)
	if _, err := s.f.ReadAt(rec, l.off); err != nil {
		return nil, false
	}
	k, val, next, _, ok := readRecord(rec, 0)
	if !ok || next != len(rec) || !bytes.Equal(k, key) {
		return nil, false
	}
	return val, true
}

// Put appends one record and indexes it.
func (s *FileStore) Put(key, value []byte) error {
	var b Batch
	b.Put(key, value)
	return s.Write(&b)
}

// Write appends the whole batch as one file write of the batch's own
// buffer, then publishes it to the index. Neither readers nor a reopen
// observe part of a batch; a reused batch writes without allocating.
func (s *FileStore) Write(b *Batch) error {
	if len(b.recs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	base := s.size
	n, err := s.f.Write(b.sealed())
	s.size += int64(n)
	if err != nil { // take back what reached the file, so the next batch follows the last
		return errors.Join(fmt.Errorf("store: %w", err), s.truncateLocked(base))
	}
	for i, r := range b.recs {
		key, _, size := b.record(i)
		s.dir.put(key, loc{base + int64(r.off), int64(size)})
	}
	return nil
}

// truncateLocked cuts the log to n bytes and moves its end there.
func (s *FileStore) truncateLocked(n int64) error {
	if err := s.f.Truncate(n); err != nil {
		return err
	}
	s.size, s.syncedSize = min(s.size, n), min(s.syncedSize, n)
	_, err := s.f.Seek(s.size, io.SeekStart)
	return err
}

// Compact rewrites the log to hold the newest record of every key keep
// accepts (of every key, for a nil keep): they are written to a temp
// file, synced, and atomically renamed over the log. A crash at any
// point leaves either the old or the new log fully intact (a leftover
// temp file is discarded, and reported, on the next open).
func (s *FileStore) Compact(keep func(key []byte) bool) (CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return CompactStats{}, ErrClosed
	}
	return s.compactLocked(keep)
}

// compactLocked streams the kept records to the temp file in log order
// (deterministic, so compacted logs are byte-comparable across runs),
// re-verifying each, ending it as a batch of its own (the record that
// ended its batch may be dropped) and indexing it at its new offset. A
// kept record that no longer verifies aborts the rewrite and leaves the
// log as it is: reopening salvages it, and reports that it did.
func (s *FileStore) compactLocked(keep func(key []byte) bool) (CompactStats, error) {
	kept := make([]loc, 0, s.dir.len())
	var node [32]byte // one copy for keep to see every node key in
	for k, l := range s.dir.nodes {
		if node = k; keep == nil || keep(node[:]) {
			kept = append(kept, l)
		}
	}
	nodes := len(kept)
	for k, e := range s.dir.small {
		if keep == nil || keep([]byte(k)) {
			kept = append(kept, *e)
		}
	}
	slices.SortFunc(kept, func(a, b loc) int { return cmp.Compare(a.off, b.off) })
	stats := CompactStats{
		BytesBefore: s.size - int64(len(logMagic)),
		Records:     len(kept),
	}
	tmpPath := filepath.Join(filepath.Dir(s.path), TmpFileName)
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return stats, fmt.Errorf("store: compact: %w", err)
	}
	fail := func(err error) (CompactStats, error) {
		_ = tmp.Close()
		_ = os.Remove(tmpPath)
		return stats, fmt.Errorf("store: compact: %w", err)
	}
	w := bufio.NewWriterSize(tmp, 1<<16)
	if _, err := w.Write(logMagic); err != nil {
		return fail(err)
	}
	next := newDirectory(nodes, len(kept)-nodes)
	size := int64(len(logMagic))
	var rec []byte
	for _, l := range kept {
		rec = slices.Grow(rec[:0], int(l.n))[:l.n]
		if _, err := s.f.ReadAt(rec, l.off); err != nil {
			return fail(err)
		}
		key, _, end, _, ok := readRecord(rec, 0)
		if !ok || end != len(rec) {
			return fail(fmt.Errorf("kept record at offset %d does not verify", l.off))
		}
		setMore(rec, false)
		if _, err := w.Write(rec); err != nil {
			return fail(err)
		}
		next.put(key, loc{size, l.n})
		size += l.n
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpPath)
		return stats, fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		_ = os.Remove(tmpPath)
		return stats, fmt.Errorf("store: compact: %w", err)
	}
	// Make the rename itself durable.
	if d, err := os.Open(filepath.Dir(s.path)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	f, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return stats, fmt.Errorf("store: compact: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		_ = f.Close()
		return stats, fmt.Errorf("store: compact: %w", err)
	}
	_ = s.f.Close()
	s.f = f
	s.dir = next
	s.size = size
	s.syncedSize = size
	stats.BytesAfter = size - int64(len(logMagic))
	return stats, nil
}

// Len returns the number of live keys.
func (s *FileStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dir.len()
}

// Salvage returns what the last open had to repair.
func (s *FileStore) Salvage() SalvageReport {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.salvage
}

// Sync forces the log to stable storage.
func (s *FileStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.syncedSize = s.size
	return nil
}

// Close syncs and closes the log. It is idempotent. The values live in
// the file only, so a closed store serves nothing: Get reports a miss.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.f.Sync(); err != nil {
		_ = s.f.Close()
		return err
	}
	return s.f.Close()
}

// Path returns the log file's path (testing/ops aid).
func (s *FileStore) Path() string { return s.path }

// --- raw file access for fault injection (same-package FaultStore) ---

// sizes returns the current file size and the durability horizon (the
// size at the last Sync).
func (s *FileStore) sizes() (size, synced int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size, s.syncedSize
}

// rawAppend writes bytes straight to the file without touching the
// index — a torn append as a crash would leave it.
func (s *FileStore) rawAppend(p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, err := s.f.Write(p); err != nil {
		return err
	}
	s.size += int64(len(p))
	return nil
}

// rawTruncate cuts the file to n bytes without touching the index —
// losing an unsynced tail; records past the cut read as misses.
func (s *FileStore) rawTruncate(n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.truncateLocked(n)
}

// rawFlipBit flips one bit at byte offset off — silent media
// corruption: a miss to Get, repaired or quarantined by the next replay.
func (s *FileStore) rawFlipBit(off int64, bit uint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b [1]byte
	if _, err := s.f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 1 << (bit % 8)
	if _, err := s.f.WriteAt(b[:], off); err != nil {
		return err
	}
	_, err := s.f.Seek(s.size, io.SeekStart)
	return err
}

// abandon closes the file handle without syncing — the process died.
func (s *FileStore) abandon() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	_ = s.f.Close()
}
