package flnet

// Client-side sparse pushes. PushDelta ships only the top-k coordinates
// that moved since the model the server last acked this client with,
// falling back to a dense push whenever sparsity cannot be applied safely
// or profitably. The fallback is always correct — a dense push needs no
// shared reference — so sparse mode degrades gracefully rather than
// failing: first push of a session, reference lost to a server restart,
// or a delta too dense to pay all silently re-sync dense.

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
//   - the delta is too dense for the sparse encoding to beat raw bytes, or
//   - the server rejects the base version (its dedup window moved on, e.g.
//     across a checkpoint restart) — the dense re-sync re-seeds both sides.
func (c *Client) PushDelta(w []float64, samples, baseVersion, topK int) ([]float64, int, error) {
	c.scratchMu.Lock()
	c.refMu.Lock()
	c.trackRef = true
	haveRef := len(w) > 0 && len(c.refW) == len(w)
	var refV int
	if haveRef {
		c.sparseIdx, c.sparseVal = fl.TopKDelta(w, c.refW, topK, c.sparseIdx, c.sparseVal)
		refV = c.refV
	}
	c.refMu.Unlock()
	if !haveRef {
		c.scratchMu.Unlock()
		cliSparseFallbacks.Inc()
		c.opts.Journal.Record("sparse.resync", baseVersion, c.ID, "reason", "no-ref")
		return c.Push(w, samples, baseVersion)
	}
	if wire.SparseSize(len(c.sparseIdx)) >= 8*len(w) {
		c.scratchMu.Unlock()
		cliSparseFallbacks.Inc()
		c.opts.Journal.Record("sparse.resync", baseVersion, c.ID, "reason", "too-dense")
		return c.Push(w, samples, baseVersion)
	}
	rep, err := c.pushRoundTrip(&request{
		Kind: wire.KindPush, ClientID: c.ID,
		SparseIdx: c.sparseIdx, SparseVals: c.sparseVal, DenseLen: len(w),
		NumSamples: samples, BaseVersion: refV,
	})
	c.scratchMu.Unlock()
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
