package flnet

// Crash recovery: the server's aggregation state — weights, model version,
// accepted-push count, and the per-client push sequence numbers that back
// the dedup window — is periodically serialized to disk and restored on
// restart (ServerOptions.Resume). Writes are atomic (temp file + rename in
// the same directory) and carry a versioned magic header, so a crash
// mid-write leaves the previous checkpoint intact and a foreign file is
// rejected instead of half-loaded. Persisting LastSeq is what makes the
// recovery exact: a portal retrying a push whose ack died with the old
// process is deduplicated by the restarted one instead of being mixed twice.

import (
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"ecofl/internal/metrics"
	"ecofl/internal/obs/journal"
)

// checkpointMagic identifies an Eco-FL server checkpoint on disk;
// checkpointFormat is bumped on incompatible layout changes.
const (
	checkpointMagic  = "ECOFL-SRV-CKPT"
	checkpointFormat = 1
)

// Checkpoint is the server's durable aggregation state.
type Checkpoint struct {
	Magic   string
	Format  int
	Weights []float64
	Version int
	Pushes  int
	// LastSeq is each client's highest applied push sequence number — the
	// dedup high-water marks that keep retried pushes exactly-once across
	// a server restart.
	LastSeq map[int]uint64
}

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

// Checkpoint captures the server's current aggregation state.
func (s *Server) Checkpoint() *Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	ck := &Checkpoint{
		Magic:   checkpointMagic,
		Format:  checkpointFormat,
		Weights: append([]float64(nil), s.weights...),
		Version: s.version,
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
	return ck
}

// SaveCheckpoint atomically writes the server's current state to path:
// the checkpoint is gob-encoded into a temp file in the same directory and
// renamed over path, so readers only ever see a complete file.
func (s *Server) SaveCheckpoint(path string) error {
	ck := s.Checkpoint()
	t0 := time.Now()
	sp := s.fleet.Trace().Begin(-1, 0, "checkpoint", "server")
	err := ck.WriteFile(path)
	sp.EndArgs(map[string]float64{"version": float64(ck.Version), "pushes": float64(ck.Pushes)})
	srvCkptWriteSeconds.Observe(time.Since(t0).Seconds())
	if err != nil {
		srvCkptWriteErrors.Inc()
		return err
	}
	srvCkptWrites.Inc()
	srvCkptVersion.Set(float64(ck.Version))
	s.jrec().Record("checkpoint.write", ck.Version, journal.None,
		"pushes", strconv.Itoa(ck.Pushes))
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
	if err := gob.NewEncoder(tmp).Encode(ck); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	info, _ := tmp.Stat()
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if info != nil {
		srvCkptBytes.Set(float64(info.Size()))
	}
	return nil
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
	var ck Checkpoint
	if err := gob.NewDecoder(f).Decode(&ck); err != nil {
		return nil, fmt.Errorf("flnet: corrupt checkpoint %s: %w", path, err)
	}
	if ck.Magic != checkpointMagic {
		return nil, fmt.Errorf("flnet: %s is not an Eco-FL server checkpoint", path)
	}
	if ck.Format != checkpointFormat {
		return nil, fmt.Errorf("flnet: checkpoint %s has format %d, want %d", path, ck.Format, checkpointFormat)
	}
	// A checkpoint holding NaN/Inf weights is poison, not state: the live
	// ingest gate keeps non-finite values out of the model, so a non-finite
	// checkpoint is corrupt (or predates the gate) and must not be re-served.
	for i, v := range ck.Weights {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("flnet: corrupt checkpoint %s: weight %d is non-finite (%v)", path, i, v)
		}
	}
	if ck.LastSeq == nil {
		ck.LastSeq = make(map[int]uint64)
	}
	srvCkptRestoreSeconds.Observe(time.Since(t0).Seconds())
	srvCkptRestores.Inc()
	return &ck, nil
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
