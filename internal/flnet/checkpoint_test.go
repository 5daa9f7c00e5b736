package flnet

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ecofl/internal/flnet/wire"
)

func TestCheckpointRoundTrip(t *testing.T) {
	s := startServer(t, []float64{0, 0}, 0.5)
	c, err := DialOptions(s.Addr(), 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, _, err := c.Push([]float64{1, 2}, 1, i); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "srv.ckpt")
	if err := s.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	wantW, wantV := s.Snapshot()
	if ck.Version != wantV || ck.Pushes != 3 {
		t.Fatalf("restored version/pushes = %d/%d, want %d/3", ck.Version, ck.Pushes, wantV)
	}
	for i := range wantW {
		if ck.Weights[i] != wantW[i] {
			t.Fatalf("restored weights %v, want %v", ck.Weights, wantW)
		}
	}
	if ck.LastSeq[4] != 3 {
		t.Fatalf("restored LastSeq[4] = %d, want 3", ck.LastSeq[4])
	}
	// One state, one encoding: marks are written in client order, so a
	// second write of the same checkpoint is the same file.
	ck.LastSeq[9], ck.LastSeq[-2], ck.LastSeq[7] = 1, 5, 2
	again := filepath.Join(filepath.Dir(path), "again.ckpt")
	for _, p := range []string{path, again} {
		if err := ck.WriteFile(p); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := os.ReadFile(path)
	b, _ := os.ReadFile(again)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("two writes of one checkpoint differ:\n% x\n% x", a, b)
	}
	// The atomic write leaves no temp litter behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	// frame builds a checkpoint-shaped file by hand, the way no writer here
	// would: any header, any payload, any trailer.
	frame := func(h wire.Header, weights []float64, marks []byte) []byte {
		var buf bytes.Buffer
		fw := wire.Writer{W: &buf}
		if err := fw.WriteFrame(&h, wire.AppendRaw(nil, weights), marks); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	mark := func(pairs ...uint64) (b []byte) {
		for i := 0; i < len(pairs); i += 2 {
			b = binary.LittleEndian.AppendUint32(b, uint32(pairs[i]))
			b = binary.LittleEndian.AppendUint64(b, pairs[i+1])
		}
		return b
	}
	ckpt := wire.Header{Kind: wire.KindCheckpoint, Codec: wire.CodecRaw, A: 7, Seq: 7}
	good := frame(ckpt, []float64{1, 2}, mark(1, 4, 2, 3))
	gob, err := os.ReadFile("testdata/checkpoint_v1.gob") // written by the parent commit's WriteFile
	if err != nil {
		t.Fatal(err)
	}
	push := ckpt
	push.Kind = wire.KindPush
	flagged := ckpt
	flagged.Flags = wire.FlagTelemetry
	for _, tc := range []struct {
		name, want string
		file       []byte
	}{
		{"garbage", "not a checkpoint frame", []byte("not a checkpoint")},
		{"empty", "not a checkpoint frame", nil},
		{"parent-format gob", "written before this format", gob},
		{"truncated frame", "EOF", good[:len(good)-5]},
		{"truncated header", "EOF", good[:20]},
		{"trailing bytes", "not exactly one checkpoint frame", append(append([]byte(nil), good...), 0)},
		{"ragged marks", "not exactly one checkpoint frame", frame(ckpt, []float64{1}, make([]byte, 13))},
		{"duplicate client", "after client 1", frame(ckpt, []float64{1}, mark(1, 4, 1, 5))},
		{"unsorted clients", "after client 2", frame(ckpt, []float64{1}, mark(2, 4, 1, 5))},
		{"non-finite weight", "non-finite", frame(ckpt, []float64{1, math.Inf(-1)}, nil)},
		{"a push frame", "not exactly one checkpoint frame", frame(push, []float64{1}, nil)},
		{"a flagged frame", "not exactly one checkpoint frame", frame(flagged, []float64{1}, nil)},
		{"future wire version", "version", append(append(append([]byte(nil), good[:4]...), wire.Version+1), good[5:]...)},
	} {
		path := filepath.Join(dir, "bad.ckpt")
		if err := os.WriteFile(path, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: LoadCheckpoint = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	// The hand-built good frame is what the writer writes, and loads.
	path := filepath.Join(dir, "good.ckpt")
	want := &Checkpoint{Weights: []float64{1, 2}, Version: 7, Pushes: 7, LastSeq: map[int]uint64{1: 4, 2: 3}}
	if err := want.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, good) {
		t.Fatalf("WriteFile wrote\n% x, want\n% x", got, good)
	}
	if got, err := LoadCheckpoint(path); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("LoadCheckpoint = %+v, %v; want %+v", got, err, want)
	}
	// The writer refuses what its reader would refuse, and leaves no file.
	for _, ck := range []*Checkpoint{
		{Version: -1},
		{Version: math.MaxInt32 + 1},
		{Pushes: -1},
		{LastSeq: map[int]uint64{math.MaxInt32 + 1: 1}},
	} {
		path := filepath.Join(dir, "refused.ckpt")
		if err := ck.WriteFile(path); err == nil {
			t.Errorf("WriteFile accepted %+v", ck)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("a refused write left %s behind (%v)", path, err)
		}
	}
	// Missing file surfaces as not-exist for cold-start detection.
	if _, err := LoadCheckpoint(filepath.Join(dir, "absent.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("missing checkpoint must be IsNotExist, got %v", err)
	}
}

func TestResumeRejectsModelMismatch(t *testing.T) {
	ck := &Checkpoint{Weights: []float64{1, 2, 3}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := NewServerOpts(ln, []float64{1, 2}, ServerOptions{Alpha: 0.5, Resume: ck}); err == nil {
		t.Fatal("resume with mismatched model size must fail")
	}
}

// Periodic checkpointing writes on the interval and flushes once more on
// stop, so a graceful shutdown never loses accepted pushes.
func TestStartCheckpointing(t *testing.T) {
	s := startServer(t, []float64{0}, 0.5)
	c, err := DialOptions(s.Addr(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	path := filepath.Join(t.TempDir(), "periodic.ckpt")
	stop := s.StartCheckpointing(path, 10*time.Millisecond)
	if _, _, err := c.Push([]float64{8}, 1, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if ck, err := LoadCheckpoint(path); err == nil && ck.Pushes >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic checkpoint never captured the push")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Push again and stop: the final flush must capture it.
	if _, _, err := c.Push([]float64{9}, 1, 1); err != nil {
		t.Fatal(err)
	}
	stop()
	stop() // idempotent
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Pushes != 2 || ck.Version != 2 {
		t.Fatalf("final flush: pushes/version = %d/%d, want 2/2", ck.Pushes, ck.Version)
	}
}
