// Package journal is the durable write-ahead log of job lifecycle
// records behind the serving layer: every job a jobs.Pool accepts is
// journaled (accepted → started → done | failed), each record is
// checksummed and fsynced before the append returns, and on startup
// the log is replayed so that jobs a crash interrupted can be
// re-enqueued instead of silently lost. Job ids are content hashes
// (internal/jobs.Hash), so replaying an already-completed job is
// idempotent by construction: it recomputes into the same cache entry.
//
// Format. A journal is a directory of segment files
// ("wal-<seq>.log"), each a sequence of newline-delimited records:
// an 8-hex-digit CRC-32C of the JSON payload, a space, and the
// payload. A record that fails its checksum — a torn tail from a
// mid-append crash, or a flipped bit — is counted and skipped, never
// replayed; everything before and after it still recovers. Open
// always starts a fresh segment, so a torn tail is never appended to.
//
// Rotation and compaction. When the live segment exceeds
// SegmentBytes the journal rotates to a new one and compacts: records
// of jobs that already reached done/failed are dropped, the still
// incomplete ones are rewritten into the fresh segment as one group
// write (one write, one fsync, however many are pending), and the old
// segments are removed. The journal's steady-state size is therefore
// proportional to the in-flight job count, not the job history.
//
// Group commit. Append is AppendBatch of one record, and concurrent
// appends coalesce into one write and one fsync: a caller encodes its
// records under the lock, enqueues them, and the first waiter in line
// becomes the commit leader — it takes up to groupMaxRecords queued
// records, writes them as one buffer, fsyncs once, and releases every
// caller whose records that commit made durable. Records that arrive
// while a commit's fsync is in flight simply form the next batch, so
// the fsync itself is the batching window (the classic WAL group
// commit), and no commit lingers for more. An append is only
// acknowledged after its commit's fsync returns, so the durability
// contract is unchanged — a crash can tear at most the unacknowledged
// tail of the in-flight batch, never a committed record.
//
// Durability is exactly as strong as the filesystem honours fsync —
// the chaos suite drives the package over internal/fsx fault plans
// (short writes, EIO, sync failures, crash-at-every-op) to pin what
// survives. An append whose write or fsync fails is counted
// (AppendErrors) and reported to the caller; the serving layer treats
// that as degraded durability, not a reason to stop serving.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"starperf/internal/cfgerr"
	"starperf/internal/fsx"
	"starperf/internal/obs"
	"starperf/internal/stats"
)

// crcTable is the CRC-32C (Castagnoli) table every record checksum
// uses.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Type is the lifecycle stage a Record marks.
type Type string

// The journaled lifecycle. Accepted carries the request payload so a
// replay can rebuild the job; the others only reference its id.
const (
	TypeAccepted Type = "accepted"
	TypeStarted  Type = "started"
	TypeDone     Type = "done"
	TypeFailed   Type = "failed"
)

// Record is one journal entry.
type Record struct {
	// Seq is the journal-assigned sequence number (Append overwrites
	// whatever the caller set).
	Seq uint64 `json:"seq"`
	// Type is the lifecycle stage.
	Type Type `json:"type"`
	// ID is the job's content-hash id.
	ID string `json:"id"`
	// Kind and Req are the operation name and canonical request body
	// an accepted record carries so replay can reconstruct the job.
	Kind string          `json:"kind,omitempty"`
	Req  json.RawMessage `json:"req,omitempty"`
	// Err is the failure message of a failed record.
	Err string `json:"err,omitempty"`
}

// groupMaxRecords caps how many records one group commit coalesces
// into a single write + fsync. Concurrent appenders past the cap
// simply form the next batch.
const groupMaxRecords = 64

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("journal: closed")

// Options configures a Journal. Dir is required.
type Options struct {
	// Dir is the journal directory, created if missing.
	Dir string
	// FS is the filesystem seam (default fsx.OS{}; chaos tests inject
	// fsx.Faulty).
	FS fsx.FS
	// SegmentBytes is the rotation threshold (default 1 MiB): a
	// segment rotates once it holds that many bytes beyond the pending
	// set its compaction rewrote.
	SegmentBytes int64
	// NoSync skips the per-append fsync. Only benchmarks and tests
	// that measure the sync cost itself should set it: an unsynced
	// journal is a journal only until the power goes out.
	NoSync bool
	// Now is the clock behind the commit-latency histogram (default
	// time.Now). It is a seam like jobs.PoolConfig.Now: the journal
	// never branches on it, and tests inject a fake clock.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = fsx.OS{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Recovery summarises what Open replayed.
type Recovery struct {
	// Records is how many valid records were read back, Segments how
	// many segment files held them, CorruptSkipped how many lines
	// failed their checksum and were dropped.
	Records        int
	Segments       int
	CorruptSkipped int
	// Incomplete holds the latest accepted record of every job that
	// never reached done/failed, in sequence order — the jobs a
	// restart must re-enqueue.
	Incomplete []Record
}

// waiter is one enqueued append (or batch of appends) awaiting a
// group commit. Everything on it is guarded by the journal's mu.
type waiter struct {
	lines []byte // encoded record lines, newline-terminated
	count int    // records in lines
	done  bool
	err   error
}

// Journal is an append-only, checksummed, rotating WAL. Safe for
// concurrent use.
type Journal struct {
	opts Options

	mu       sync.Mutex
	cond     *sync.Cond // signals commit completion to queued waiters
	file     fsx.File
	fileName string
	size     int64
	base     int64    // live segment size once compaction rewrote the pending set
	segments []string // on-disk segment paths, oldest first (includes current)
	segIndex uint64   // index of the newest segment
	seq      uint64
	pending  map[string]Record // accepted-but-not-terminal, by id
	torn     bool              // last write may have left a partial line
	closed   bool

	queue      []*waiter // records awaiting a group commit, FIFO
	committing bool      // a leader owns the live segment's I/O right now

	appends      uint64
	appendErrors uint64
	syncs        uint64
	rotations    uint64
	compactions  uint64
	replayed     int
	corrupt      int

	readonly    bool   // last commit hit ENOSPC; no proof space returned yet
	noSpaceErrs uint64 // records lost to full-disk commits
	probes      uint64 // explicit space probes issued

	commits       uint64        // group commits (one write+fsync each)
	commitRecords uint64        // records those commits made durable
	maxBatch      int           // largest records-per-commit seen
	commitLat     stats.Latency // commit latency, same summary as the server's routes
}

// Open replays the journal in opts.Dir (creating it if missing),
// reports what it found, and readies a fresh segment for appends.
func Open(opts Options) (*Journal, *Recovery, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, nil, cfgerr.New("journal: Dir is required")
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: creating %s: %w", opts.Dir, err)
	}
	j := &Journal{
		opts:    opts,
		pending: make(map[string]Record),
	}
	j.cond = sync.NewCond(&j.mu)
	rec, err := j.replay()
	if err != nil {
		return nil, nil, err
	}
	if err := j.openSegment(); err != nil {
		return nil, nil, fmt.Errorf("journal: opening segment: %w", err)
	}
	return j, rec, nil
}

// segmentName renders the path of segment i.
func (j *Journal) segmentName(i uint64) string {
	return filepath.Join(j.opts.Dir, fmt.Sprintf("wal-%016x.log", i))
}

// parseSegment extracts the index from a segment file name.
func parseSegment(name string) (uint64, bool) {
	if !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	base, ok := strings.CutPrefix(strings.TrimSuffix(name, ".log"), "wal-")
	if !ok || len(base) != 16 {
		return 0, false
	}
	i, err := strconv.ParseUint(base, 16, 64)
	if err != nil {
		return 0, false
	}
	return i, true
}

// replay reads every existing segment in order, rebuilding the
// pending map and the sequence counter.
func (j *Journal) replay() (*Recovery, error) {
	entries, err := j.opts.FS.ReadDir(j.opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("journal: reading %s: %w", j.opts.Dir, err)
	}
	var indices []uint64
	for _, e := range entries {
		if i, ok := parseSegment(e.Name()); ok {
			indices = append(indices, i)
		}
	}
	sort.Slice(indices, func(a, b int) bool { return indices[a] < indices[b] })
	rec := &Recovery{}
	for _, i := range indices {
		path := j.segmentName(i)
		j.segments = append(j.segments, path)
		if i > j.segIndex {
			j.segIndex = i
		}
		data, err := j.opts.FS.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("journal: reading %s: %w", path, err)
		}
		rec.Segments++
		j.replaySegment(data, rec)
	}
	j.replayed = rec.Records
	j.corrupt = rec.CorruptSkipped
	rec.Incomplete = j.pendingLocked()
	return rec, nil
}

// replaySegment applies one segment's records to the pending state.
// It walks the segment bytes in place — no string copy of the file,
// no per-line payload copy — because replay is boot cost: a node
// restarting after a crash reads every segment before it can serve.
func (j *Journal) replaySegment(data []byte, rec *Recovery) {
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(line) == 0 {
			continue
		}
		r, ok := decodeRecord(line)
		if !ok {
			rec.CorruptSkipped++
			continue
		}
		rec.Records++
		if r.Seq > j.seq {
			j.seq = r.Seq
		}
		j.applyLocked(r)
	}
}

// applyLocked folds one record into the pending map.
func (j *Journal) applyLocked(r Record) {
	switch r.Type {
	case TypeAccepted:
		j.pending[r.ID] = r
	case TypeStarted:
		// started refines accepted; the accepted record (with its
		// request payload) stays the replayable one.
	case TypeDone, TypeFailed:
		delete(j.pending, r.ID)
	}
}

// pendingLocked snapshots the incomplete records in sequence order.
func (j *Journal) pendingLocked() []Record {
	out := make([]Record, 0, len(j.pending))
	for _, r := range j.pending {
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// encodeRecord renders one record line: CRC-32C of the JSON payload,
// a space, the payload, a newline.
func encodeRecord(r Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding record: %w", err)
	}
	sum := crc32.Checksum(payload, crcTable)
	line := make([]byte, 0, len(payload)+10)
	line = append(line, fmt.Sprintf("%08x ", sum)...)
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// decodeRecord parses and verifies one line. The payload slice
// aliases the caller's buffer: json.Unmarshal copies everything it
// keeps (json.RawMessage included), so nothing in the decoded Record
// outlives the segment read that produced the line.
func decodeRecord(line []byte) (Record, bool) {
	var r Record
	if len(line) < 10 || line[8] != ' ' {
		return r, false
	}
	sum, ok := hexUint32(line[:8])
	if !ok {
		return r, false
	}
	payload := line[9:]
	if crc32.Checksum(payload, crcTable) != sum {
		return r, false
	}
	if err := json.Unmarshal(payload, &r); err != nil {
		return r, false
	}
	return r, true
}

// hexUint32 parses exactly eight hex digits without the string
// round-trip strconv would force on a []byte input.
func hexUint32(b []byte) (uint32, bool) {
	var v uint32
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint32(c-'a'+10)
		case c >= 'A' && c <= 'F':
			v = v<<4 | uint32(c-'A'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// openSegment starts the next segment and makes its directory entry
// durable.
func (j *Journal) openSegment() error {
	j.segIndex++
	name := j.segmentName(j.segIndex)
	f, err := j.opts.FS.OpenAppend(name)
	if err != nil {
		return err
	}
	j.file = f
	j.fileName = name
	j.size, j.base = 0, 0
	j.torn = false
	j.segments = append(j.segments, name)
	if !j.opts.NoSync {
		if err := j.opts.FS.SyncDir(j.opts.Dir); err != nil {
			return err
		}
		j.syncs++
	}
	return nil
}

// Append journals one record: it is AppendBatch of one.
func (j *Journal) Append(r Record) error {
	return j.AppendBatch([]Record{r})
}

// AppendBatch journals records as one unit, assigning sequence numbers
// in order: they are encoded and enqueued together, so one group
// commit (one write and, unless NoSync, one fsync) makes the whole set
// durable, coalesced with any concurrent appends (see the package
// comment). The call returns once that commit has, with its error or
// nil. The in-memory lifecycle state advances even when the disk
// write fails, so compaction and Stats stay truthful about the pool;
// the error (and the AppendErrors counter) tells the caller durability
// is degraded.
func (j *Journal) AppendBatch(records []Record) error {
	if len(records) == 0 {
		return nil
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	lines, err := j.encodeLocked(nil, records)
	if err != nil {
		// Unreachable for well-formed records (json.Marshal of plain
		// structs); the batch is abandoned unwritten, state already
		// advanced — the same advance-then-report contract a failed
		// disk write has.
		j.appendErrors += uint64(len(records))
		j.mu.Unlock()
		return err
	}
	w := &waiter{lines: lines, count: len(records)}
	j.queue = append(j.queue, w)
	j.mu.Unlock()
	return j.commitWait(w)
}

// encodeLocked assigns each record the next sequence number, folds it
// into the lifecycle state and appends its line to buf. Callers hold
// j.mu.
func (j *Journal) encodeLocked(buf []byte, records []Record) ([]byte, error) {
	for i := range records {
		j.seq++
		records[i].Seq = j.seq
		j.applyLocked(records[i])
		line, err := encodeRecord(records[i])
		if err != nil {
			return nil, err
		}
		buf = append(buf, line...)
	}
	return buf, nil
}

// commitWait blocks until w is committed, electing the caller as
// commit leader whenever no commit is in flight. Called without j.mu.
//
// Each loop iteration is one fully bracketed critical section: check
// w, either sleep on the condition or run one commit as leader, and
// release the mutex before coming round again. The leader drops the
// mutex for the write+fsync — that window is what lets concurrent
// appenders enqueue the next batch while this one syncs — and
// j.committing keeps the live segment's I/O single-owner throughout.
func (j *Journal) commitWait(w *waiter) error {
	for {
		j.mu.Lock()
		if w.done {
			err := w.err
			j.mu.Unlock()
			return err
		}
		if j.committing {
			j.cond.Wait() // returns with the mutex re-held
			j.mu.Unlock()
			continue
		}
		j.committing = true
		batch, buf, records := j.takeBatchLocked()
		start := j.opts.Now()
		j.mu.Unlock()
		var n int
		var err, syncErr error
		if len(buf) > 0 {
			n, err, syncErr = j.writeSync(buf)
		}
		took := j.opts.Now().Sub(start)
		j.mu.Lock()
		j.finishCommitLocked(batch, records, len(buf), n, err, syncErr, took)
		j.mu.Unlock()
	}
}

// takeBatchLocked dequeues up to groupMaxRecords records' worth of
// waiters and frames their coalesced write buffer. Zero-record flush
// barriers ride along for free. Callers hold j.mu.
func (j *Journal) takeBatchLocked() (batch []*waiter, buf []byte, records int) {
	for len(j.queue) > 0 {
		next := j.queue[0]
		if len(batch) > 0 && records+next.count > groupMaxRecords {
			break
		}
		batch = append(batch, next)
		records += next.count
		j.queue = j.queue[1:]
		if records >= groupMaxRecords {
			break
		}
	}
	size := 0
	for _, w := range batch {
		size += len(w.lines)
	}
	if size == 0 {
		return batch, nil, records
	}
	buf = j.frameLocked(size)
	for _, w := range batch {
		buf = append(buf, w.lines...)
	}
	return batch, buf, records
}

// frameLocked starts a group write's buffer, with room for size bytes
// of lines: empty, or a newline guard when the previous write tore,
// so the torn tail stays an isolated (checksum-rejected) line instead
// of merging with — and destroying — this write's first record.
// Callers hold j.mu.
func (j *Journal) frameLocked(size int) []byte {
	buf := make([]byte, 0, size+1)
	if j.torn {
		buf = append(buf, '\n')
	}
	return buf
}

// writeSync is the journal's one group write: buf goes to the live
// segment in a single write, then — unless NoSync, or the write
// failed — one fsync. It touches no journal state, so a commit leader
// calls it with j.mu released; settleLocked folds the outcome back.
func (j *Journal) writeSync(buf []byte) (n int, err, syncErr error) {
	n, err = j.file.Write(buf)
	if err == nil && !j.opts.NoSync {
		syncErr = j.file.Sync()
	}
	return n, err, syncErr
}

// settleLocked folds a writeSync outcome into the segment state — its
// size, whether its tail may be torn, the sync count — and returns
// the write error, else the sync error. Callers hold j.mu.
func (j *Journal) settleLocked(n int, err, syncErr error) error {
	j.size += int64(n)
	j.torn = err != nil // a failed write may have torn a partial line
	if err != nil {
		return err
	}
	if syncErr == nil && !j.opts.NoSync {
		j.syncs++
	}
	return syncErr
}

// finishCommitLocked folds one commit's outcome into the journal
// state, releases the batch's waiters and hands leadership back.
// Callers hold j.mu.
func (j *Journal) finishCommitLocked(batch []*waiter, records, bufLen, n int, err, syncErr error, took time.Duration) {
	if bufLen > 0 {
		if err = j.settleLocked(n, err, syncErr); err != nil {
			j.appendErrors += uint64(records)
			// A full disk flips the journal read-only: callers that
			// need durability (async submits) must stop acknowledging
			// until space provably returns. Any other error is a
			// one-commit failure, not a mode.
			if isNoSpace(err) {
				j.readonly = true
				j.noSpaceErrs += uint64(records)
			}
		} else {
			// A durable commit is proof the disk has space again.
			j.readonly = false
			j.appends += uint64(records)
			j.commits++
			j.commitRecords += uint64(records)
			if records > j.maxBatch {
				j.maxBatch = records
			}
			j.commitLat.Add(took)
		}
	}
	for _, w := range batch {
		w.done = true
		w.err = err
	}
	if err == nil && bufLen > 0 && j.size >= j.base+j.opts.SegmentBytes {
		// Rotate on SegmentBytes of new records, not on segment size:
		// a pending set that alone fills a segment would otherwise be
		// rewritten by every commit. Rotation and compaction are
		// best-effort: a failure leaves the current segment growing,
		// not the journal broken.
		_ = j.rotateLocked()
	}
	j.committing = false
	j.cond.Broadcast()
}

// rotateLocked closes the live segment, opens the next one and
// compacts the history into it.
func (j *Journal) rotateLocked() error {
	if err := j.file.Close(); err != nil {
		return err
	}
	if err := j.openSegment(); err != nil {
		return err
	}
	j.rotations++
	return j.compactLocked()
}

// Compact rotates to a fresh segment and rewrites the journal down to
// its incomplete jobs: their accepted records are re-appended to the
// new segment and every older segment is removed. Completed history is dropped — the cache
// holds those results; the journal only owes the jobs a crash would
// lose.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	// Wait out any in-flight group commit: j.committing marks a leader
	// that has dropped the mutex to write the live segment, and the
	// segment must not be swapped under it. Holding the mutex from
	// here on keeps new leaders out until the compaction finishes.
	for j.committing {
		j.cond.Wait()
	}
	return j.rotateLocked()
}

// compactLocked rewrites pending records into the (fresh) live
// segment as one group write — one write and one fsync however many
// jobs are pending — and removes all older segments.
func (j *Journal) compactLocked() error {
	if pending := j.pendingLocked(); len(pending) > 0 {
		buf, err := j.encodeLocked(j.frameLocked(0), pending)
		if err != nil {
			return err
		}
		if err := j.settleLocked(j.writeSync(buf)); err != nil {
			return err
		}
		j.appends += uint64(len(pending))
		j.base = j.size
	}
	// Remove old segments strictly oldest-first and STOP at the first
	// failure, so the surviving set is always a suffix of the log. A
	// suffix can never resurrect a completed job: a job's terminal
	// record has a higher sequence number than its accepted record,
	// so it lives in the same or a later segment — if the accepted
	// record survives, so does the terminal one. (Arbitrary-subset
	// removal broke exactly that; the chaos storm caught it.)
	var failed error
	keep := j.segments[:0]
	for _, path := range j.segments {
		if path == j.fileName || failed != nil {
			keep = append(keep, path)
			continue
		}
		if err := j.opts.FS.Remove(path); err != nil {
			// Keep it and retry at the next compaction; replay
			// tolerates stale segments.
			keep = append(keep, path)
			failed = err
		}
	}
	j.segments = keep
	if !j.opts.NoSync {
		if err := j.opts.FS.SyncDir(j.opts.Dir); err != nil && failed == nil {
			failed = err
		} else if err == nil {
			j.syncs++
		}
	}
	j.compactions++
	return failed
}

// Pending returns how many jobs are accepted or started but not yet
// terminal.
func (j *Journal) Pending() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.pending)
}

// isNoSpace reports whether err is a disk-full failure, injected
// (fsx.ErrNoSpace) or real — both unwrap to syscall.ENOSPC.
func isNoSpace(err error) bool {
	return errors.Is(err, syscall.ENOSPC)
}

// ReadOnly reports whether the journal is in read-only degradation: a
// commit hit ENOSPC and no later commit or probe has proven space
// returned. The journal itself keeps accepting Append calls (they
// fail like any other commit error); the mode exists for the serving
// layer, which must stop acknowledging durable work it cannot make
// durable.
func (j *Journal) ReadOnly() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.readonly
}

// probeName is the throwaway file Probe writes. It does not look like
// a segment, so replay never reads it.
const probeName = "probe.tmp"

// Probe checks whether disk space has returned by writing, fsyncing
// and removing a small file next to the segments — not a WAL record,
// so a probe never pollutes replay. On success the read-only mode is
// cleared; on failure (or when the journal is closed) it stays. The
// serving layer calls this before refusing an async submit so a
// recovered disk flips back to read-write on the next request rather
// than waiting for organic sync traffic to commit something.
func (j *Journal) Probe() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	j.probes++
	j.mu.Unlock()
	err := j.probeOnce()
	j.mu.Lock()
	if err == nil {
		j.readonly = false
	} else if isNoSpace(err) {
		j.readonly = true
	}
	j.mu.Unlock()
	return err
}

// probeOnce performs one probe-file write/sync/remove cycle through
// the FS seam. Called without j.mu: the probe file is disjoint from
// the live segment, so it needs no serialisation with commits.
func (j *Journal) probeOnce() error {
	name := filepath.Join(j.opts.Dir, probeName)
	f, err := j.opts.FS.Create(name)
	if err != nil {
		return fmt.Errorf("journal: probe create: %w", err)
	}
	step := "write"
	_, err = f.Write([]byte("probe\n"))
	if err == nil {
		step, err = "sync", f.Sync()
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		step, err = "close", cerr
	}
	if err != nil {
		j.opts.FS.Remove(name)
		return fmt.Errorf("journal: probe %s: %w", step, err)
	}
	return j.opts.FS.Remove(name)
}

// Stats snapshots the journal counters.
func (j *Journal) Stats() obs.JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := obs.JournalStats{
		Appends:        j.appends,
		AppendErrors:   j.appendErrors,
		Syncs:          j.syncs,
		Rotations:      j.rotations,
		Compactions:    j.compactions,
		Segments:       len(j.segments),
		Pending:        len(j.pending),
		Replayed:       j.replayed,
		CorruptSkipped: j.corrupt,
		Commits:        j.commits,
		CommitRecords:  j.commitRecords,
		MaxBatch:       j.maxBatch,
		ReadOnly:       j.readonly,
		NoSpaceErrors:  j.noSpaceErrs,
		Probes:         j.probes,
	}
	if j.commits > 0 {
		st.FsyncsSaved = j.commitRecords - j.commits
	}
	st.CommitMeanMicros = j.commitLat.MeanMicros()
	st.CommitMaxMicros = j.commitLat.MaxMicros()
	st.CommitP50Micros = j.commitLat.QuantileMicros(0.50)
	st.CommitP95Micros = j.commitLat.QuantileMicros(0.95)
	st.CommitP99Micros = j.commitLat.QuantileMicros(0.99)
	return st
}

// Close flushes the queued records, then syncs and closes the live
// segment. Appends after Close fail with ErrClosed; appends already
// enqueued are committed — their callers are blocked inside Append
// and still owed a durable acknowledgement.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	if len(j.queue) > 0 || j.committing {
		// A zero-record flush barrier: the queue is FIFO, so by the
		// time the barrier commits, every record enqueued before the
		// close has been committed too.
		w := &waiter{}
		j.queue = append(j.queue, w)
		j.mu.Unlock()
		_ = j.commitWait(w)
		j.mu.Lock()
	}
	var syncErr error
	if !j.opts.NoSync {
		syncErr = j.file.Sync()
		if syncErr == nil {
			j.syncs++
		}
	}
	closeErr := j.file.Close()
	j.mu.Unlock()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
