package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"costest/internal/core"
	"costest/internal/feature"
)

// Service is the HTTP face of the estimator daemon: it decodes wire plans,
// submits each request's plans to the batching scheduler as one group, and
// exposes the health, readiness and statistics endpoints an orchestrator
// probes. Handlers are panic-recovered individually — a failing request 500s
// alone, the daemon keeps serving.
type Service struct {
	sched *Scheduler
	srv   *core.Server
	enc   *feature.Encoder

	// SupervisorStats, when set, is rendered under "supervisor" in /statsz —
	// the daemon installs its retrain supervisor's counters here.
	SupervisorStats func() any
	// ReplicationStats, when set, is rendered under "replication" in
	// /statsz — a replication primary installs its publisher's counters, a
	// replica its follower's (generation, lag, frames applied/rejected).
	ReplicationStats func() any
	// ClusterState, when set, reports the cluster member's role
	// ("following" / "promoting" / "primary"); /readyz reflects it so an
	// orchestrator can see a failover in flight.
	ClusterState func() string
	// ClusterStats, when set, is rendered under "cluster" in /statsz — an
	// HA cluster member installs its MemberStats here (state, epoch, lease,
	// promotion counters).
	ClusterStats func() any

	ready  atomic.Bool
	sample atomic.Pointer[WirePlan]

	// scratch recycles requestScratch values across /estimate requests.
	scratch sync.Pool
	// encodeNodes and encodeShared accumulate every request's encode-level
	// sharing counts (feature.Arena.Nodes / Shared); decodeBytes and
	// decodeShared the decoder's (body bytes, bytes skipped as repeats).
	encodeNodes, encodeShared atomic.Int64
	decodeBytes, decodeShared atomic.Int64
}

// retryAfterFloor floors the back-off hint attached to 503 responses. The
// actual hint is derived per response from the plans waiting for a run slot
// and the measured run time (see Scheduler.RetryAfterHint), plus a random
// jitter of up to half the hint so a synchronized rejection burst does not
// come back as a synchronized retry storm.
const retryAfterFloor = time.Second

// maxBodyBytes bounds request bodies (another unbounded-growth guard).
const maxBodyBytes = 1 << 20

// NewService wires the HTTP layer over a scheduler. The service starts
// unready; call SetReady(true) once the model is loaded and the scheduler
// started.
func NewService(sched *Scheduler, srv *core.Server, enc *feature.Encoder) *Service {
	return &Service{sched: sched, srv: srv, enc: enc}
}

// SetReady flips the /readyz gate. Readiness additionally requires the
// scheduler not to be draining, so shutdown reports unready the instant the
// drain begins, with no extra call.
func (s *Service) SetReady(ready bool) { s.ready.Store(ready) }

// SetSample installs the wire plan served by /samplez — a known-valid
// example request against this daemon's schema, so clients (and the CI smoke
// test) can discover the request shape without reading the source.
func (s *Service) SetSample(w *WirePlan) { s.sample.Store(w) }

// estimateRequest is the /estimate body: exactly one of Plan or Plans. The
// daemon writes it (/samplez) and clients marshal it; the handler reads
// bodies with DecodeEstimate's scan on a recycled decoder.
type estimateRequest struct {
	Plan  *WirePlan   `json:"plan,omitempty"`
	Plans []*WirePlan `json:"plans,omitempty"`
	// TimeoutMS bounds this request's time in the daemon (waiting for a run
	// slot + running); expired requests are answered 504, never served late.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// wireEstimate is one estimate in a response. Epoch and Generation are the cluster-wide replication coordinates of the
// snapshot that answered, as it carries them (core.ModelSnapshot.Coordinates;
// present when the daemon replicates, omitted for a snapshot no publish hook
// labeled): two daemons reporting the same (epoch, generation) serve
// bit-identical estimates, whatever their local versions say.
type wireEstimate struct {
	Cost       float64 `json:"cost"`
	Card       float64 `json:"card"`
	Version    uint64  `json:"version"`
	Epoch      uint64  `json:"epoch,omitempty"`
	Generation uint64  `json:"generation,omitempty"`
}

type estimateResponse struct {
	Estimates []wireEstimate `json:"estimates"`
}

// statszResponse is the /statsz body.
type statszResponse struct {
	Version    uint64          `json:"version"`
	Scheduler  SchedulerStats  `json:"scheduler"`
	Pool       *poolStats      `json:"pool,omitempty"`
	Sharing    sharingStats    `json:"sharing"`
	Drain      core.DrainStats `json:"snapshot_drain"`
	Supervisor any             `json:"supervisor,omitempty"`
	// Replication carries PublisherStats on a primary, FollowerStats (lag
	// included) on a replica.
	Replication any `json:"replication,omitempty"`
	// Cluster carries MemberStats (state, epoch, lease, promotions) on an
	// HA cluster member.
	Cluster any `json:"cluster,omitempty"`
	// PublishesRefused counts publications refused for NaN or infinite
	// values (core.Server.PublishesRefused).
	PublishesRefused uint64 `json:"publishes_refused"`
}

// poolStats is the memory pool's state. Admitted counts representations the
// pool stored; Declined counts first sightings a bounded pool turned away
// (core.NewBoundedMemoryPool admits a sub-plan on its second offer).
type poolStats struct {
	Entries   int     `json:"entries"`
	Bound     int     `json:"bound"`
	HitRate   float64 `json:"hit_rate"`
	StaleRate float64 `json:"stale_rate"`
	Admitted  int64   `json:"admitted"`
	Declined  int64   `json:"declined"`
}

// sharingStats is sub-plan reuse short of the pool. The nodes_* fields are
// the model's half (core.SharingStats): plan nodes that repeated an earlier
// node of their own batch never reach the pool, so the pool's hit rate alone
// understates what is not re-evaluated. The encode_* fields are the encoder's:
// of the plan nodes /estimate requests carried, how many repeated an earlier
// subtree of the same request and were copied instead of encoded. The
// decode_* fields are the decoder's: of the body bytes it accepted, how many
// repeated an earlier subtree of the same body and were skipped, not scanned.
type sharingStats struct {
	NodesPlaced       int64   `json:"nodes_placed"`
	NodesShared       int64   `json:"nodes_shared"`
	SharedRate        float64 `json:"shared_rate"`
	EncodeNodes       int64   `json:"encode_nodes"`
	EncodeShared      int64   `json:"encode_shared"`
	EncodeSharedRate  float64 `json:"encode_shared_rate"`
	DecodeBytes       int64   `json:"decode_bytes"`
	DecodeSharedBytes int64   `json:"decode_shared_bytes"`
}

// Handler returns the daemon's HTTP mux, every route wrapped in per-request
// panic recovery.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/estimate", s.handleEstimate)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/samplez", s.handleSamplez)
	return s.recoverWrap(mux)
}

// recoverWrap fails only the panicking request: the connection gets a 500
// (when nothing was written yet) and the daemon keeps serving.
func (s *Service) recoverWrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				http.Error(w, fmt.Sprintf("internal error: %v", p), http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz distinguishes the daemon's non-nominal states: draining
// (shutting down — stop sending traffic) and not ready (no model yet) answer
// 503; promoting (a cluster member mid-failover, still serving) answers 200.
func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.sched.Draining() {
		s.unavailable(w, "draining")
		return
	}
	if !s.ready.Load() {
		s.unavailable(w, "not ready")
		return
	}
	w.WriteHeader(http.StatusOK)
	if s.ClusterState != nil {
		if st := s.ClusterState(); st == "promoting" {
			// Mid-failover: still serving the sealed weights, but tell the
			// orchestrator an election is in flight.
			fmt.Fprintln(w, "promoting (taking over as replication primary)")
			return
		}
	}
	fmt.Fprintln(w, "ready")
}

func (s *Service) handleStatsz(w http.ResponseWriter, r *http.Request) {
	resp := statszResponse{
		Version:   s.srv.Version(),
		Scheduler: s.sched.Stats(),
		Drain:     s.srv.SnapshotDrainStats(),

		PublishesRefused: s.srv.PublishesRefused(),
	}
	if s.SupervisorStats != nil {
		resp.Supervisor = s.SupervisorStats()
	}
	if s.ReplicationStats != nil {
		resp.Replication = s.ReplicationStats()
	}
	if s.ClusterStats != nil {
		resp.Cluster = s.ClusterStats()
	}
	sh := s.srv.SharingStats()
	resp.Sharing = sharingStats{
		NodesPlaced: sh.NodesPlaced, NodesShared: sh.NodesShared,
		EncodeNodes: s.encodeNodes.Load(), EncodeShared: s.encodeShared.Load(),
		DecodeBytes: s.decodeBytes.Load(), DecodeSharedBytes: s.decodeShared.Load(),
	}
	if sh.NodesPlaced > 0 {
		resp.Sharing.SharedRate = float64(sh.NodesShared) / float64(sh.NodesPlaced)
	}
	if resp.Sharing.EncodeNodes > 0 {
		resp.Sharing.EncodeSharedRate = float64(resp.Sharing.EncodeShared) / float64(resp.Sharing.EncodeNodes)
	}
	if p := s.srv.Pool(); p != nil {
		resp.Pool = &poolStats{
			Entries:   p.Len(),
			Bound:     p.Bound(),
			HitRate:   p.HitRate(),
			StaleRate: p.StaleRate(),
			Admitted:  p.Admitted(),
			Declined:  p.Declined(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleSamplez(w http.ResponseWriter, r *http.Request) {
	sample := s.sample.Load()
	if sample == nil {
		http.Error(w, "no sample plan installed", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, estimateRequest{Plan: sample})
}

// requestScratch owns everything one /estimate request builds: the body it
// read, the plan trees decoded from it, their encodings, the per-plan results
// and the response bytes. handleEstimate takes one from the service's pool
// and puts it back once the response is written, so a request served on a
// warm scratch leaves almost nothing for the collector — which, before this,
// was the largest single cost of an enumeration request.
//
// Three rules keep that safe. The slabs underneath (internal/slab) start empty
// and grow to what the traffic needs, rather than being sized for the largest
// request allowed; recycled memory is zeroed where it is carved, because the
// encoder writes ones into assumed zeros; and a scratch goes back to the pool
// only on a normal return, after the request's SubmitGroup has returned —
// the scheduler and the model read the encoded plans until then, and nothing
// reads them after (no component keeps a served plan past its request).
// A request that panics leaves its scratch to the collector.
type requestScratch struct {
	body      bytes.Buffer
	dec       decoder
	arena     feature.Arena
	results   []Result
	estimates []wireEstimate
	out       []byte
}

// maxScratchBytes caps what a pooled scratch may hold on to. A 64-plan
// enumeration request settles under a megabyte; a scratch that a rare huge
// request (a body may be 1 MiB, thousands of nodes) grew past a few times that
// is dropped instead of pooled, so one such request does not pin its
// high-water mark for the life of the process.
const maxScratchBytes = 4 << 20

// retained is the memory the scratch would keep if pooled: the parts that
// scale with a request's bytes. (The per-plan result slices are a few dozen
// bytes a plan beside kilobytes here.)
func (sc *requestScratch) retained() int {
	return sc.body.Cap() + sc.dec.retained() + sc.arena.Bytes() + cap(sc.out)
}

func (s *Service) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !s.ready.Load() {
		s.unavailable(w, "model not ready")
		return
	}
	sc, _ := s.scratch.Get().(*requestScratch)
	if sc == nil {
		sc = new(requestScratch)
	}
	s.serveEstimate(w, r, sc)
	// Not deferred: only a request that returned normally is known to be done
	// with its scratch.
	if sc.retained() <= maxScratchBytes {
		s.scratch.Put(sc)
	}
}

// serveEstimate answers one /estimate request out of sc.
func (s *Service) serveEstimate(w http.ResponseWriter, r *http.Request, sc *requestScratch) {
	// Decode, then feature-encode, before admission, so invalid requests are
	// 400s at the boundary and never occupy queue slots.
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	roots, timeoutMS, err := sc.dec.decode(s.enc.Cat.DB.Schema, sc.body.Bytes())
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	s.decodeBytes.Add(int64(sc.body.Len()))
	s.decodeShared.Add(int64(sc.dec.shared))
	eps, err := s.enc.EncodeAll(roots, &sc.arena)
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	s.encodeNodes.Add(int64(sc.arena.Nodes))
	s.encodeShared.Add(int64(sc.arena.Shared))

	// Deadline propagation: the request context (client disconnects cancel
	// it) plus the optional explicit budget.
	ctx := r.Context()
	if timeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(timeoutMS)*time.Millisecond)
		defer cancel()
	}

	// The request's plans are admitted, run and answered as one group; the
	// call has returned before this function does, which is what lets the
	// caller recycle sc.
	sc.results = slices.Grow(sc.results[:0], len(eps))[:len(eps)]
	if err := s.sched.SubmitGroup(ctx, eps, sc.results); err != nil {
		switch {
		case errors.Is(err, ErrOverloaded), errors.Is(err, ErrDraining):
			s.unavailable(w, err.Error())
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			http.Error(w, err.Error(), http.StatusGatewayTimeout)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	sc.estimates = sc.estimates[:0]
	for _, res := range sc.results {
		sc.estimates = append(sc.estimates, wireEstimate{
			Cost:       res.Cost,
			Card:       res.Card,
			Version:    res.Version,
			Epoch:      res.Epoch,
			Generation: res.Generation,
		})
	}
	if sc.out, err = appendEstimates(sc.out[:0], sc.estimates); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(sc.out)
}

// appendEstimates appends the 200 body of /estimate — byte for byte what
// writeJSON writes for an estimateResponse (two-space indent, encoding/json's
// number formatting, omitempty on epoch and generation, a trailing
// newline), without its reflection and re-indentation. The one difference: a
// NaN or infinite estimate, which encoding/json cannot represent either (its
// encoder fails after the 200 header is out and the body stays empty), is
// returned as an error so the handler can answer 500.
func appendEstimates(b []byte, ests []wireEstimate) ([]byte, error) {
	b = append(b, "{\n  \"estimates\": ["...)
	for i, e := range ests {
		if math.IsNaN(e.Cost+e.Card) || math.IsInf(e.Cost, 0) || math.IsInf(e.Card, 0) {
			return b, fmt.Errorf("serve: non-finite estimate (cost %v, card %v)", e.Cost, e.Card)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      \"cost\": "...)
		b = appendJSONFloat(b, e.Cost)
		b = append(b, ",\n      \"card\": "...)
		b = appendJSONFloat(b, e.Card)
		b = append(b, ",\n      \"version\": "...)
		b = strconv.AppendUint(b, e.Version, 10)
		if e.Epoch != 0 {
			b = append(b, ",\n      \"epoch\": "...)
			b = strconv.AppendUint(b, e.Epoch, 10)
		}
		if e.Generation != 0 {
			b = append(b, ",\n      \"generation\": "...)
			b = strconv.AppendUint(b, e.Generation, 10)
		}
		b = append(b, "\n    }"...)
	}
	if len(ests) > 0 {
		b = append(b, "\n  "...)
	}
	return append(b, "]\n}\n"...), nil
}

// appendJSONFloat formats a finite float the way encoding/json does (the ES6
// number-to-string rules): %f between 1e-6 and 1e21, otherwise %e with the
// exponent's leading zero dropped.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 is written e-7
		b = b[:n-1]
	}
	return b
}

// unavailable writes a 503 with a Retry-After hint derived from the load the
// daemon is actually under — waiting plans over run throughput — rather than
// a constant: a client rejected by a nearly drained queue can retry almost
// immediately, one rejected by a full queue should stay away for the time the
// backlog needs. retryAfterFloor floors the hint; jitter (up to half the hint)
// de-synchronizes retry storms.
func (s *Service) unavailable(w http.ResponseWriter, msg string) {
	hint := s.sched.RetryAfterHint()
	if hint < retryAfterFloor {
		hint = retryAfterFloor
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSecs(hint, rand.Float64())))
	http.Error(w, msg, http.StatusServiceUnavailable)
}

// retryAfterSecs converts a back-off hint to whole seconds for the
// Retry-After header: the hint plus jit-scaled jitter of up to half the hint,
// rounded up, clamped to [1, 60]. Pure so tests can pin the jitter.
func retryAfterSecs(hint time.Duration, jit float64) int {
	jittered := hint + time.Duration(jit*float64(hint)/2)
	secs := int((jittered + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
