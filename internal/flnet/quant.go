package flnet

import (
	"errors"
	"math"

	"ecofl/internal/flnet/wire"
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

// QuantizeInto encodes w into q, reusing q.Data's capacity (same discipline
// as the tensor buffer pool: the caller owns and recycles the storage) —
// hot paths quantize every push. A constant vector quantizes with Scale 0.
// Returns q.
func QuantizeInto(w []float64, q *Quantized) *Quantized {
	if cap(q.Data) < len(w) {
		q.Data = make([]uint8, len(w))
	}
	q.Data = q.Data[:len(w)]
	q.Min, q.Scale = 0, 0
	if len(w) == 0 {
		return q
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range w {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	q.Min = lo
	if hi > lo {
		q.Scale = (hi - lo) / 255
		for i, v := range w {
			q.Data[i] = uint8(math.Round((v - lo) / q.Scale))
		}
	} else {
		for i := range q.Data {
			q.Data[i] = 0
		}
	}
	return q
}

// DequantizeInto reconstructs the vector into dst, which must have
// len(q.Data) elements (the server's ingest path passes pooled scratch
// instead of allocating per push). The error is at most Scale/2 per element.
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
// a steady-state quantized uplink does not churn allocations.
func (c *Client) PushQuantized(w []float64, samples, baseVersion int) ([]float64, int, error) {
	c.scratchMu.Lock()
	defer c.scratchMu.Unlock()
	rep, err := c.pushRoundTrip(&request{
		Kind: wire.KindPush, ClientID: c.ID, Quant: QuantizeInto(w, &c.qbuf),
		NumSamples: samples, BaseVersion: baseVersion,
	})
	if err != nil {
		return nil, 0, err
	}
	return rep.Weights, rep.Version, nil
}

// errNoPayload is returned when a push carries neither raw nor quantized
// weights.
var errNoPayload = errors.New("flnet: push carries no weights")
