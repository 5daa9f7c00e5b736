package flnet

// The session table: everything the server keeps per client is one session
// record in Server.sessions, guarded by Server.mu — the push dedup window
// (seq and the ack sent for it, which doubles as the sparse path's reference
// model) and, with ServerOptions.LeaseTTL set, the client's membership lease.
// A record is created by a client's first push or, under leases, by its first
// contact of any kind, and is never deleted.
//
// Every contact (pull, push, telemetry) runs the lease state machine once
// (contactLocked), inside the same critical section as the rest of the
// request:
//
//	no lease yet           → lease.grant
//	live, within TTL       → lease.renew
//	live, TTL lapsed       → lease.expire, then as expired (the background
//	                         reaper makes the same transition on a timer)
//	expired                → lease.readmit; a push is additionally rejected
//	                         with leaseExpired, so the client re-syncs and
//	                         retries — the sparseBaseMismatch discipline
//
// Expiry clears the session's ack in the step that marks it expired: no other
// request can observe one without the other, so a returning client's first
// sparse push takes the dense re-sync path. seq is deliberately kept, so push
// dedup stays exactly-once across any number of depart/return cycles. Members
// and SessionCount expose the live membership view a selector (or an
// operator) reads.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ecofl/internal/obs/journal"
)

// leaseExpired prefixes the rejection of a push from a client whose lease
// lapsed. The rejection itself re-admits the client (its contact proves it is
// back), so the client's single transparent retry of the same request — same
// Seq, the rejected push was never applied — lands on the fresh lease.
const leaseExpired = "flnet: lease expired"

// session is one client's record. An expired lease stays on it: that is what
// distinguishes a returning client (lease.readmit) from a brand-new one
// (lease.grant), and it is a few words per client.
type session struct {
	seq uint64 // highest acked push Seq; survives expiry and restarts
	ack *model // dedup window: a reference to the model sent for seq; nil when none is held

	granted time.Time // first contact; zero until a lease is granted
	renewed time.Time // most recent contact
	expires time.Time // renewed + TTL
	expired bool
}

// live reports whether the session holds an unexpired lease.
func (ss *session) live() bool { return !ss.granted.IsZero() && !ss.expired }

// addLiveLocked moves the live-lease count and this server's share of the
// process-global sessions gauge together. Caller holds s.mu.
func (s *Server) addLiveLocked(d int) {
	s.live += d
	srvSessionsActive.Add(float64(d))
}

// expireLocked marks a lapsed lease expired and, in the same step, drops the
// session's ack: its reference to the model is released and the client's
// next sparse push takes the dense re-sync path. Caller holds s.mu.
func (s *Server) expireLocked(id int, ss *session, now time.Time) {
	ss.expired = true
	s.release(ss.ack)
	ss.ack = nil
	srvLeaseExpired.Inc()
	s.addLiveLocked(-1)
	s.jrec().Record("lease.expire", journal.None, id, "idle", now.Sub(ss.renewed).Round(time.Millisecond).String())
}

// contactLocked returns the client's session after running the lease state
// machine for one contact (the table in the file header). It creates the
// session on a push or, under leases, on any contact; without leases a
// non-push contact of an unknown client returns nil and keeps no state. A
// push on an expired lease re-admits the client but is rejected with
// leaseExpired — its ack is gone, so the client must re-sync before its
// update can be trusted. The rejection is deterministic and comes before the
// model is touched, so the retried push (same Seq) is dedup-safe. Caller
// holds s.mu.
func (s *Server) contactLocked(id int, push bool) (*session, error) {
	leases := s.opts.LeaseTTL > 0
	ss := s.sessions[id]
	if ss == nil && (push || leases) {
		ss = &session{}
		s.sessions[id] = ss
	}
	if !leases {
		return ss, nil
	}
	now := s.opts.LeaseNow()
	if ss.live() && now.After(ss.expires) {
		// Lapsed but not yet reaped: observe the expiry, then the contact
		// re-admits — the journal shows the full lifecycle either way.
		s.expireLocked(id, ss, now)
	}
	ss.renewed, ss.expires = now, now.Add(s.opts.LeaseTTL)
	switch {
	case ss.granted.IsZero():
		ss.granted = now
		srvLeaseGrants.Inc()
		s.addLiveLocked(1)
		s.jrec().Record("lease.grant", journal.None, id, "ttl", s.opts.LeaseTTL.String())
	case ss.expired:
		ss.expired = false
		srvLeaseReadmits.Inc()
		s.addLiveLocked(1)
		s.jrec().Record("lease.readmit", journal.None, id)
		if push {
			srvLeaseRejectedPushes.Inc()
			return ss, fmt.Errorf("%s: client %d re-admitted, re-sync and retry", leaseExpired, id)
		}
	default:
		s.jrec().Record("lease.renew", journal.None, id)
	}
	return ss, nil
}

// ReapExpiredLeases expires every lapsed lease (in ascending client order,
// so the journal timeline is deterministic), dropping the holders' dedup
// acks. It returns how many leases expired. The background reaper calls this
// on a timer; virtual-time harnesses call it directly after advancing their
// injected clock.
func (s *Server) ReapExpiredLeases() int {
	if s.opts.LeaseTTL <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.opts.LeaseNow()
	var lapsed []int
	for id, ss := range s.sessions {
		if ss.live() && now.After(ss.expires) {
			lapsed = append(lapsed, id)
		}
	}
	sort.Ints(lapsed)
	for _, id := range lapsed {
		s.expireLocked(id, s.sessions[id], now)
	}
	return len(lapsed)
}

// reaperLoop runs ReapExpiredLeases on a timer until Close.
func (s *Server) reaperLoop(interval time.Duration) {
	defer s.wg.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.reaperStop:
			return
		case <-tick.C:
			s.ReapExpiredLeases()
		}
	}
}

// Members returns the client IDs holding a live lease, ascending — the
// membership view selection reads. Without leases (LeaseTTL 0) it is empty.
func (s *Server) Members() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]int, 0, s.live)
	for id, ss := range s.sessions {
		if ss.live() {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// SessionCount returns how many clients hold a live lease.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// pushRoundTrip runs a push round trip, transparently re-syncing once when
// the server rejects it for an expired lease: the rejection already
// re-admitted this client, so the identical request — same Seq; the rejected
// push was never applied — is safe to resend and lands on the fresh lease.
func (c *Client) pushRoundTrip(req *request) (*reply, error) {
	rep, err := c.roundTrip(req)
	if err != nil && strings.Contains(err.Error(), leaseExpired) {
		cliLeaseResyncs.Inc()
		c.opts.Journal.Record("lease.readmit", journal.None, c.ID, "err", journal.ErrText(err))
		return c.roundTrip(req)
	}
	return rep, err
}
