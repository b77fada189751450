package server

// The job-kind registry: one row per kind starperfd serves, and the
// one table every serving path dispatches through — the compute
// handler each kind's route mounts (serve), batch items, journal
// recovery, cluster forwarding and admission pricing. A kind added
// here works on every path by construction.

import (
	"net/http"
	"strings"

	"starperf/internal/cfgerr"
	"starperf/internal/jobs"
	"starperf/internal/wire"
)

// jobKind is one row of the registry.
type jobKind struct {
	// name is the kind's jobs.Hash domain, its journal kind and its
	// batch item kind.
	name string
	// route is the kind's standalone POST route, "/v1/<name>".
	route string
	// sync kinds answer with the result bytes; async kinds answer with
	// a job id to poll at GET /v1/jobs/{id}.
	sync bool
	// parse turns a raw request body into a job: strict decode,
	// defaults, prepare, content hash and canonical journal meta.
	parse func(raw []byte) (job, error)
}

// job is one parsed request, ready for the cache and the pool.
type job struct {
	id   string
	meta jobs.Meta
	run  runner
}

// request is what a wire request type provides to its registry row.
type request[R any] interface {
	withDefaults() R
	prepare() (runner, error)
}

// newKind builds the registry row for request type R.
func newKind[R request[R]](name string, sync bool) *jobKind {
	return &jobKind{name: name, route: "/v1/" + name, sync: sync, parse: func(raw []byte) (job, error) {
		var req R
		if err := decodeStrict(raw, &req); err != nil {
			return job{}, err
		}
		req = req.withDefaults()
		run, err := req.prepare()
		if err != nil {
			return job{}, err
		}
		// One canonical body is both hashed into the id and journaled,
		// so a restart parses back exactly this job.
		body, err := jobs.CanonicalJSON(req)
		if err != nil {
			return job{}, err
		}
		id := jobs.HashCanonical(name, body)
		return job{id: id, meta: jobs.Meta{Kind: name, Req: body}, run: run}, nil
	}}
}

var (
	predictKind  = newKind[PredictRequest]("predict", true)
	boundsKind   = newKind[BoundsRequest]("bounds", true)
	simulateKind = newKind[SimulateRequest]("simulate", false)
	sweepKind    = newKind[SweepRequest]("sweep", false)

	// registry lists every kind, in route-mount order.
	registry = []*jobKind{predictKind, boundsKind, simulateKind, sweepKind}
)

// parseKind parses raw with the named kind's parse step; an unknown
// name is a configuration error.
func parseKind(name string, raw []byte) (job, error) {
	names := make([]string, len(registry))
	for i, k := range registry {
		if k.name == name {
			return k.parse(raw)
		}
		names[i] = k.name
	}
	return job{}, cfgerr.Errorf("unknown job kind %q (want %s)", name, strings.Join(names, ", "))
}

// serve is the compute handler every kind's route mounts: parse, a
// verified cache lookup, cluster routing, then the computation — the
// caller waits for the bytes of a sync kind, and gets a durable job
// id to poll for an async one.
func (s *Server) serve(k *jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		raw, ok := s.readBody(w, r)
		if !ok {
			return
		}
		j, err := k.parse(raw)
		if err != nil {
			s.writeErr(w, err)
			return
		}
		// A verifying read, never a bare existence check: answering done
		// on a corrupt disk entry would acknowledge a result that the
		// poll's own verified read then quarantines and 404s.
		if body, ok := s.cache.Get(j.id); ok {
			k.answer(w, j.id, "hit", body)
			return
		}
		if s.clusterRoute(w, r, k, j.id, raw) {
			return
		}
		fn := s.runAndStore(j.id, j.run)
		if k.sync {
			v, err := s.pool.DoMeta(r.Context(), j.id, j.meta, fn)
			if err != nil {
				s.writeErr(w, err)
				return
			}
			reply(w, http.StatusOK, result{j.id, "miss", v.([]byte)})
			return
		}
		// A 202 is a durability promise a read-only journal cannot keep.
		if s.refuseReadOnly(w) {
			return
		}
		submitted, err := s.pool.SubmitMeta(j.id, j.meta, fn)
		if err != nil {
			s.writeErr(w, err)
			return
		}
		reply(w, http.StatusAccepted, wire.Job{ID: j.id, Status: string(submitted.Status())})
	}
}

// answer serves a result that is already stored: the bytes themselves
// for a sync kind, a done envelope to poll for an async one.
func (k *jobKind) answer(w http.ResponseWriter, id, cacheState string, body []byte) {
	if k.sync {
		reply(w, http.StatusOK, result{id, cacheState, body})
		return
	}
	reply(w, http.StatusOK, wire.Job{ID: id, Status: string(jobs.StatusDone)})
}
