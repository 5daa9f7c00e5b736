package flnet

// Crash recovery: the server's aggregation state — weights, model version,
// accepted-push count, and the per-client push sequence numbers that back
// the dedup window — is periodically serialized to disk and restored on
// restart (ServerOptions.Resume). The file is one wire.KindCheckpoint frame,
// the raw frame a dense push already is: the frame's magic, version and kind
// are the format check, wire.Limits bounds what a reader will take from it,
// and a foreign or older file is rejected instead of half-loaded. Writes are
// atomic (temp file + rename in the same directory), so a crash mid-write
// leaves the previous checkpoint intact. Persisting LastSeq is what makes
// the recovery exact: a portal retrying a push whose ack died with the old
// process is deduplicated by the restarted one instead of being mixed twice.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"ecofl/internal/flnet/wire"
	"ecofl/internal/metrics"
	"ecofl/internal/obs/journal"
)

// Checkpoint is the server's durable aggregation state.
type Checkpoint struct {
	Weights []float64
	Version int
	Pushes  int
	// LastSeq is each client's highest applied push sequence number — the
	// dedup high-water marks that keep retried pushes exactly-once across
	// a server restart.
	LastSeq map[int]uint64
}

// markSize is one dedup mark in a checkpoint frame's trailer: client int32,
// seq uint64. Marks are written in ascending client order, so one state has
// one encoding.
const markSize = 12

var (
	srvCkptWrites = metrics.GetCounter("ecofl_server_checkpoint_writes_total",
		"server state checkpoints written to disk")
	srvCkptWriteErrors = metrics.GetCounter("ecofl_server_checkpoint_write_errors_total",
		"checkpoint writes that failed")
	srvCkptWriteSeconds = metrics.GetHistogram("ecofl_server_checkpoint_write_seconds",
		"time to serialize and atomically persist one checkpoint", metrics.DefBuckets)
	srvCkptRestoreSeconds = metrics.GetHistogram("ecofl_server_checkpoint_restore_seconds",
		"time to read and decode a checkpoint from disk", metrics.DefBuckets)
	srvCkptRestores = metrics.GetCounter("ecofl_server_checkpoint_restores_total",
		"checkpoints successfully loaded from disk")
	srvCkptResumes = metrics.GetCounter("ecofl_server_checkpoint_resumes_total",
		"servers started from a restored checkpoint")
	srvCkptBytes = metrics.GetGauge("ecofl_server_checkpoint_bytes",
		"size of the last written checkpoint")
	srvCkptVersion = metrics.GetGauge("ecofl_server_checkpoint_version",
		"model version captured by the last written checkpoint")
)

// Checkpoint captures the server's current aggregation state. The model is
// copied after s.mu is released, from a reference taken under it, so pushes
// do not wait on the copy.
func (s *Server) Checkpoint() *Checkpoint {
	s.mu.Lock()
	m := s.cur.hold()
	ck := &Checkpoint{
		Version: m.version,
		Pushes:  s.pushes,
		LastSeq: make(map[int]uint64, len(s.sessions)),
	}
	for id, ss := range s.sessions {
		// A session that never had a push acked (a pull-only member) has no
		// high-water mark to persist.
		if ss.seq > 0 {
			ck.LastSeq[id] = ss.seq
		}
	}
	s.mu.Unlock()
	ck.Weights = append([]float64(nil), m.weights...)
	s.release(m)
	return ck
}

// SaveCheckpoint atomically writes the server's current state to path:
// the checkpoint frame goes into a temp file in the same directory, which is
// synced and renamed over path, so readers only ever see a complete file.
func (s *Server) SaveCheckpoint(path string) error {
	ck := s.Checkpoint()
	t0 := time.Now()
	sp := s.jrec().Begin()
	err := ck.WriteFile(path)
	srvCkptWriteSeconds.Observe(time.Since(t0).Seconds())
	if err != nil {
		srvCkptWriteErrors.Inc()
		return err
	}
	srvCkptWrites.Inc()
	srvCkptVersion.Set(float64(ck.Version))
	sp.End(0, "checkpoint.write", ck.Version, journal.None, "pushes", strconv.Itoa(ck.Pushes))
	return nil
}

// WriteFile atomically persists the checkpoint to path.
func (ck *Checkpoint) WriteFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := ck.encode(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	srvCkptBytes.Set(float64(wire.HeaderSize + 8*len(ck.Weights) + markSize*len(ck.LastSeq)))
	return nil
}

// encode writes ck as one checkpoint frame, dedup marks in client order,
// refusing what decodeCheckpoint would refuse to read back (here a version or
// client id the frame cannot hold; in WriteFrame, sizes past wire.Limits)
// rather than leave a file no restart can use.
func (ck *Checkpoint) encode(w io.Writer) error {
	ids := make([]int, 0, len(ck.LastSeq))
	for id := range ck.LastSeq {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if ck.Version < 0 || ck.Version > math.MaxInt32 || ck.Pushes < 0 ||
		len(ids) > 0 && (ids[0] < math.MinInt32 || ids[len(ids)-1] > math.MaxInt32) {
		return fmt.Errorf("flnet: checkpoint version %d, pushes %d or a client id does not fit the frame", ck.Version, ck.Pushes)
	}
	marks := make([]byte, 0, markSize*len(ids))
	for _, id := range ids {
		marks = binary.LittleEndian.AppendUint32(marks, uint32(id))
		marks = binary.LittleEndian.AppendUint64(marks, ck.LastSeq[id])
	}
	fw := wire.Writer{W: w}
	return fw.WriteRawFrame(&wire.Header{Kind: wire.KindCheckpoint, A: int32(ck.Version), Seq: uint64(ck.Pushes)}, ck.Weights, marks)
}

// decodeCheckpoint reads exactly one checkpoint frame from r, fail-closed:
// every byte of the header means what encode wrote or the file is refused,
// so whatever is accepted re-encodes to the bytes it came from.
func decodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	fr := wire.Reader{R: r}
	h, payload, marks, err := fr.Next()
	if err != nil {
		return nil, err
	}
	// One more byte, whatever it is, means the file is more than the frame.
	if n, _ := r.Read(make([]byte, 1)); n != 0 || h.Kind != wire.KindCheckpoint || h.Flags != 0 ||
		h.A < 0 || h.B != 0 || h.C != 0 || h.Seq > math.MaxInt || len(marks)%markSize != 0 {
		return nil, fmt.Errorf("%w: not exactly one checkpoint frame: %+v", wire.ErrFrame, h)
	}
	ck := &Checkpoint{Version: int(h.A), Pushes: int(h.Seq), LastSeq: make(map[int]uint64, len(marks)/markSize)}
	ck.Weights, _ = wire.ParseRaw(payload, nil) // ParseHeader checked the length
	// Poison, not state: the live ingest gate keeps NaN/Inf out of the model,
	// so a file holding one is corrupt and must not be re-served.
	if !finite(ck.Weights...) {
		return nil, fmt.Errorf("%w: a weight is non-finite", wire.ErrFrame)
	}
	prev := int64(math.MinInt64)
	for ; len(marks) > 0; marks = marks[markSize:] {
		id := int64(int32(binary.LittleEndian.Uint32(marks)))
		if id <= prev {
			return nil, fmt.Errorf("%w: dedup mark for client %d after client %d", wire.ErrFrame, id, prev)
		}
		prev = id
		ck.LastSeq[int(id)] = binary.LittleEndian.Uint64(marks[4:])
	}
	return ck, nil
}

// LoadCheckpoint reads and validates a server checkpoint. A missing file is
// returned as the underlying fs.ErrNotExist so callers can treat "no
// checkpoint yet" as a cold start.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	t0 := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [4]byte // stays zero, which is not the magic either, if the read fails
	if _, _ = f.ReadAt(magic[:], 0); magic != wire.Magic {
		return nil, fmt.Errorf("flnet: %s is not a checkpoint frame (one written before this format, as a gob stream, is not read: start cold)", path)
	}
	ck, err := decodeCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("flnet: corrupt checkpoint %s: %w", path, err)
	}
	srvCkptRestoreSeconds.Observe(time.Since(t0).Seconds())
	srvCkptRestores.Inc()
	return ck, nil
}

// StartCheckpointing saves the server state to path every interval until
// the returned stop function is called; stop writes one final checkpoint
// (the graceful-shutdown flush) and is idempotent. Write errors are counted
// (ecofl_server_checkpoint_write_errors_total) and retried on the next tick.
func (s *Server) StartCheckpointing(path string, every time.Duration) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				_ = s.SaveCheckpoint(path) // counted; retried next tick
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
			_ = s.SaveCheckpoint(path)
		})
	}
}
