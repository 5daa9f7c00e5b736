package flnet

import (
	"net"
	"sync/atomic"

	"ecofl/internal/flnet/wire"
	"ecofl/internal/metrics"
)

// Protocol observability on the metrics Default registry. Counters sit
// around whole round trips — chunky operations — so the cost is a few
// atomic adds per request, invisible next to encode/decode and TCP. Byte
// counts are measured at the net.Conn boundary (what actually crossed the
// wire), not at the payload level, so frame headers and trailers are
// included.
var (
	srvRequestsPull = metrics.GetCounter("ecofl_flnet_server_requests_total",
		"requests served by kind", "kind", "pull")
	srvRequestsPush = metrics.GetCounter("ecofl_flnet_server_requests_total",
		"requests served by kind", "kind", "push")
	srvRequestsTelemetry = metrics.GetCounter("ecofl_flnet_server_requests_total",
		"requests served by kind", "kind", "telemetry")
	srvDecodeErrors = metrics.GetCounter("ecofl_flnet_server_decode_errors_total",
		"request streams that failed to decode (malformed or truncated, clean EOF excluded)")
	srvPushErrors = metrics.GetCounter("ecofl_flnet_server_push_errors_total",
		"pushes rejected (bad payload or dimension mismatch)")
	srvPayloadRaw = metrics.GetCounter("ecofl_flnet_server_push_payload_total",
		"push payloads received by encoding", "encoding", "raw")
	srvPayloadQuant = metrics.GetCounter("ecofl_flnet_server_push_payload_total",
		"push payloads received by encoding", "encoding", "quantized")
	srvBytesIn = metrics.GetCounter("ecofl_flnet_server_bytes_read_total",
		"bytes read from portal connections")
	srvBytesOut = metrics.GetCounter("ecofl_flnet_server_bytes_written_total",
		"bytes written to portal connections")
	srvRequestSeconds = metrics.GetHistogram("ecofl_flnet_server_request_seconds",
		"server-side latency from request decode to reply write", metrics.DefBuckets)

	cliRequestsPull = metrics.GetCounter("ecofl_flnet_client_requests_total",
		"round trips issued by kind", "kind", "pull")
	cliRequestsPush = metrics.GetCounter("ecofl_flnet_client_requests_total",
		"round trips issued by kind", "kind", "push")
	cliRequestsTelemetry = metrics.GetCounter("ecofl_flnet_client_requests_total",
		"round trips issued by kind", "kind", "telemetry")
	cliBytesIn = metrics.GetCounter("ecofl_flnet_client_bytes_read_total",
		"bytes read from the server connection")
	cliBytesOut = metrics.GetCounter("ecofl_flnet_client_bytes_written_total",
		"bytes written to the server connection")
	cliRequestSeconds = metrics.GetHistogram("ecofl_flnet_client_request_seconds",
		"client-side round-trip latency", metrics.DefBuckets)

	// Fault-tolerance instrumentation: every retry, redial and dedup ack is
	// counted, so the dashboard shows how hard the transport is working to
	// hide a bad network.
	cliRetries = metrics.GetCounter("ecofl_flnet_client_retries_total",
		"round-trip attempts repeated after a transport failure")
	cliReconnects = metrics.GetCounter("ecofl_flnet_client_reconnects_total",
		"fresh connections dialed to replace a failed one")
	srvDedupedPushes = metrics.GetCounter("ecofl_flnet_server_deduped_pushes_total",
		"retried pushes acked from the dedup window instead of mixed again")

	// Wire-protocol instrumentation (framing, codecs): how many connections
	// completed the hello handshake and how many payload bytes each codec
	// moved versus what raw float64 would have cost — the direct measure of
	// the wire savings /fleet and /dash surface.
	srvConnsBinary = metrics.GetCounter("ecofl_flnet_server_conns_total",
		"portal connections accepted by protocol", "proto", "binary")
	srvSparseRejects = metrics.GetCounter("ecofl_flnet_server_sparse_rejects_total",
		"sparse pushes rejected for a base-version mismatch (client re-syncs dense)")
	srvPayloadSparse = metrics.GetCounter("ecofl_flnet_server_push_payload_total",
		"push payloads received by encoding", "encoding", "sparse")

	srvPayloadBytesRaw = metrics.GetCounter("ecofl_flnet_server_payload_bytes_total",
		"logical push payload bytes ingested by codec", "codec", "raw")
	srvPayloadBytesQuant = metrics.GetCounter("ecofl_flnet_server_payload_bytes_total",
		"logical push payload bytes ingested by codec", "codec", "quantized")
	srvPayloadBytesSparse = metrics.GetCounter("ecofl_flnet_server_payload_bytes_total",
		"logical push payload bytes ingested by codec", "codec", "sparse")
	cliPayloadBytesRaw = metrics.GetCounter("ecofl_flnet_client_payload_bytes_total",
		"logical push payload bytes sent by codec", "codec", "raw")
	cliPayloadBytesQuant = metrics.GetCounter("ecofl_flnet_client_payload_bytes_total",
		"logical push payload bytes sent by codec", "codec", "quantized")
	cliPayloadBytesSparse = metrics.GetCounter("ecofl_flnet_client_payload_bytes_total",
		"logical push payload bytes sent by codec", "codec", "sparse")

	// Lease-based membership instrumentation (lease.go): the live session
	// gauge and the full lease lifecycle, so /dash shows the fleet breathing
	// under churn.
	srvSessionsActive = metrics.GetGauge("ecofl_flnet_sessions_active",
		"clients currently holding a live membership lease")
	srvLeaseGrants = metrics.GetCounter("ecofl_flnet_lease_grants_total",
		"first-contact membership leases granted")
	srvLeaseExpired = metrics.GetCounter("ecofl_flnet_lease_expired_total",
		"membership leases expired after their TTL lapsed")
	srvLeaseReadmits = metrics.GetCounter("ecofl_flnet_lease_readmissions_total",
		"expired clients re-admitted on a fresh lease")
	srvLeaseRejectedPushes = metrics.GetCounter("ecofl_flnet_lease_rejected_pushes_total",
		"pushes rejected because the sender's lease had expired (client re-syncs)")
	cliLeaseResyncs = metrics.GetCounter("ecofl_flnet_client_lease_resyncs_total",
		"pushes retried after a lease-expired rejection re-admitted the client")

	// Semantic ingest validation (the Byzantine last gate): pushes that
	// decoded fine but carried poison — non-finite values or an outlier
	// update norm — are acked and quarantined rather than mixed, and the
	// adaptive gate's current threshold is published for /dash.
	srvQuarNonFinite = metrics.GetCounter("ecofl_flnet_server_quarantined_pushes_total",
		"pushes acked but quarantined by semantic validation", "reason", "non-finite")
	srvQuarNorm = metrics.GetCounter("ecofl_flnet_server_quarantined_pushes_total",
		"pushes acked but quarantined by semantic validation", "reason", "norm")
	srvNormGateThreshold = metrics.GetGauge("ecofl_flnet_server_norm_gate_threshold",
		"current adaptive L2 norm-gate admission threshold (0 until warm)")

	cliSparseFallbacks = metrics.GetCounter("ecofl_flnet_client_sparse_fallbacks_total",
		"sparse pushes sent dense instead (no reference, sparsity unprofitable, or base rejected)")

	srvCompressionRatio = compressionGauge{g: metrics.GetGauge(
		"ecofl_flnet_server_push_compression_ratio",
		"raw-equivalent bytes ÷ actual payload bytes across all ingested pushes")}
	cliCompressionRatio = compressionGauge{g: metrics.GetGauge(
		"ecofl_flnet_client_push_compression_ratio",
		"raw-equivalent bytes ÷ actual payload bytes across all sent pushes")}
)

// compressionGauge tracks cumulative raw-equivalent vs actual payload bytes
// and publishes their ratio: 1.0 for an all-raw workload, ≈8 for quantized,
// higher still for sparse deltas.
type compressionGauge struct {
	raw, actual atomic.Int64
	g           *metrics.Gauge
}

func (c *compressionGauge) add(rawBytes, actualBytes int) {
	r := c.raw.Add(int64(rawBytes))
	a := c.actual.Add(int64(actualBytes))
	if a > 0 {
		c.g.Set(float64(r) / float64(a))
	}
}

// pushPayloadSize returns the logical payload bytes of a push under its
// codec and under the raw-float64 baseline, so the compression metrics
// compare codecs, not framing.
func pushPayloadSize(req *request) (actual, rawEquiv int) {
	switch {
	case req.Weights != nil:
		n := 8 * len(req.Weights)
		return n, n
	case req.Quant != nil:
		return wire.QuantSize(len(req.Quant.Data)), 8 * len(req.Quant.Data)
	case req.SparseIdx != nil || req.DenseLen > 0:
		return wire.SparseSize(len(req.SparseIdx)), 8 * req.DenseLen
	}
	return 0, 0
}

// countPushPayload records a push's per-codec payload counters server-side.
func countPushPayload(req *request) {
	actual, rawEquiv := pushPayloadSize(req)
	switch {
	case req.Weights != nil:
		srvPayloadRaw.Inc()
		srvPayloadBytesRaw.Add(int64(actual))
	case req.Quant != nil:
		srvPayloadQuant.Inc()
		srvPayloadBytesQuant.Add(int64(actual))
	case req.SparseIdx != nil || req.DenseLen > 0:
		srvPayloadSparse.Inc()
		srvPayloadBytesSparse.Add(int64(actual))
	default:
		return
	}
	srvCompressionRatio.add(rawEquiv, actual)
}

// countClientPushPayload is the client-side mirror, recorded once per
// logical push (not per retry).
func countClientPushPayload(req *request) {
	actual, rawEquiv := pushPayloadSize(req)
	switch {
	case req.Weights != nil:
		cliPayloadBytesRaw.Add(int64(actual))
	case req.Quant != nil:
		cliPayloadBytesQuant.Add(int64(actual))
	case req.SparseIdx != nil || req.DenseLen > 0:
		cliPayloadBytesSparse.Add(int64(actual))
	default:
		return
	}
	cliCompressionRatio.add(rawEquiv, actual)
}

// countingConn counts every byte crossing a net.Conn into a counter pair.
type countingConn struct {
	net.Conn
	in, out *metrics.Counter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

// Write counts the bytes before they leave, so a peer that has read them
// finds them already on the books; a short write takes the rest back.
func (c countingConn) Write(p []byte) (int, error) {
	c.out.Add(int64(len(p)))
	n, err := c.Conn.Write(p)
	if n < len(p) {
		c.out.Add(int64(n - len(p)))
	}
	return n, err
}
