package flnet

import (
	"errors"

	"ecofl/internal/flnet/wire"
	"ecofl/internal/tensor"
)

// Quantized is an affine int8 quantization of a float64 vector: each value
// maps to round((v − Min) / Scale) ∈ [0, 255], stored in one byte — an 8×
// smaller uplink payload than raw float64 weights, the standard
// communication-efficiency lever in FL systems.
type Quantized struct {
	Min   float64
	Scale float64
	Data  []uint8
}

// QuantizeInto encodes w into q with tensor.QuantizeU8, reusing q.Data's
// capacity (same discipline as the tensor buffer pool: the caller owns and
// recycles the storage) — hot paths quantize every push. A constant vector
// quantizes with Scale 0; a vector with a non-finite element with Min and
// Scale NaN, which wire.ParseQuant refuses. Returns q.
func QuantizeInto(w []float64, q *Quantized) *Quantized {
	if cap(q.Data) < len(w) {
		q.Data = make([]uint8, len(w))
	}
	q.Data = q.Data[:len(w)]
	q.Min, q.Scale = tensor.QuantizeU8(q.Data, w)
	return q
}

// DequantizeInto reconstructs the vector into dst, which must have
// len(q.Data) elements. The server's commit dequantizes with the same
// expression inside its mixing pass instead. The error is at most Scale/2
// per element.
func (q *Quantized) DequantizeInto(dst []float64) []float64 {
	dst = dst[:len(q.Data)]
	for i, b := range q.Data {
		dst[i] = q.Min + float64(b)*q.Scale
	}
	return dst
}

// PushQuantized submits a quantized update; the server dequantizes before
// mixing. The returned global model is full precision. The quantization
// buffer is owned by the client and reused across pushes (QuantizeInto), so
// a steady-state quantized uplink does not churn allocations. An update the
// quantized payload cannot carry — a non-finite weight, or a range that
// overflows — goes as a dense Push instead, so it meets the server's gate
// (quarantine) rather than the frame parser (a dropped connection).
func (c *Client) PushQuantized(w []float64, samples, baseVersion int) ([]float64, int, error) {
	c.scratchMu.Lock()
	q := QuantizeInto(w, &c.qbuf)
	if !finite(q.Min, q.Scale) {
		c.scratchMu.Unlock()
		c.opts.Journal.Record("quant.dense", baseVersion, c.ID, "reason", "non-finite")
		return c.Push(w, samples, baseVersion)
	}
	rep, err := c.pushRoundTrip(&request{
		Kind: wire.KindPush, ClientID: c.ID, Quant: q,
		NumSamples: samples, BaseVersion: baseVersion,
	})
	c.scratchMu.Unlock()
	if err != nil {
		return nil, 0, err
	}
	return rep.Weights, rep.Version, nil
}

// errNoPayload is returned when a push carries neither raw nor quantized
// weights.
var errNoPayload = errors.New("flnet: push carries no weights")
