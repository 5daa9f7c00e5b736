package flnet

// Client-side sparse pushes. PushDelta ships only the top-k coordinates
// that moved since the model the server last acked this client with,
// falling back to a dense push whenever sparsity cannot be applied safely
// or profitably. The fallback is always correct — a dense push needs no
// shared reference — so sparse mode degrades gracefully rather than
// failing: first push of a session, reference lost to a server restart,
// a delta too dense to pay or one with a non-finite coordinate all silently
// re-sync dense.

import (
	"strings"

	"ecofl/internal/fl"
	"ecofl/internal/flnet/wire"
)

// PushDelta submits the update as a top-k sparse overlay against the model
// the server last acked this client with, and returns the freshly mixed
// global model like Push. topK caps how many coordinates are transmitted;
// topK ≥ len(w) sends exactly the changed coordinates (lossless — bit-
// identical to Push). It falls back to a dense Push(w, samples, baseVersion)
// when
//   - no usable reference exists yet (first push, reconnect after Close,
//     dimension change),
//   - the delta is too dense for the sparse encoding to beat raw bytes,
//   - a coordinate of the delta is not finite (the dense push meets the
//     server's gate and is quarantined, where a selection would drop it), or
//   - the server rejects the base version (its dedup window moved on, e.g.
//     across a checkpoint restart) — the dense re-sync re-seeds both sides.
func (c *Client) PushDelta(w []float64, samples, baseVersion, topK int) ([]float64, int, error) {
	c.encodeMu.Lock()
	defer c.encodeMu.Unlock()
	c.refMu.Lock()
	c.trackRef = true
	haveRef := len(w) > 0 && len(c.refW) == len(w)
	var idx []uint32
	var vals []float64
	var refV int
	finite := true
	if haveRef {
		idx, vals, finite = fl.TopKDeltaFinite(w, c.refW, topK, idxSpares.Get(), valSpares.Get())
		defer idxSpares.Put(idx)
		defer valSpares.Put(vals)
		refV = c.refV
	}
	c.refMu.Unlock()
	var reason string
	switch {
	case !haveRef:
		reason = "no-ref"
	case !finite:
		reason = "non-finite"
	case wire.SparseSize(len(idx)) >= 8*len(w):
		reason = "too-dense"
	}
	if reason != "" {
		cliSparseFallbacks.Inc()
		c.opts.Journal.Record("sparse.resync", baseVersion, c.ID, "reason", reason)
		return c.Push(w, samples, baseVersion)
	}
	rep, err := c.pushRoundTrip(&request{
		Kind: wire.KindPush, ClientID: c.ID,
		SparseIdx: idx, SparseVals: vals, DenseLen: len(w),
		NumSamples: samples, BaseVersion: refV,
	})
	if err != nil {
		if strings.Contains(err.Error(), sparseBaseMismatch) {
			cliSparseFallbacks.Inc()
			c.opts.Journal.Record("sparse.resync", baseVersion, c.ID, "reason", "base-mismatch")
			return c.Push(w, samples, baseVersion)
		}
		return nil, 0, err
	}
	return rep.Weights, rep.Version, nil
}

// Sparse scratch — a push's top-k on the client, a decoded sparse payload
// (or, on big-endian hosts, a raw one) on the server — is borrowed for the
// push from these lists, as wire's frame buffers are, so no session keeps
// any between pushes. A sparse push holds one pair on the client for its
// round trip and one on the server for its dispatch; the lists are as deep
// as wire's small list.
var (
	idxSpares = wire.NewSpares[uint32](wire.ListDepth)
	valSpares = wire.NewSpares[float64](wire.ListDepth)
)
