package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// serve-mix shape: serveClients closed-loop clients, and in every block
// of serveBlock consecutive requests exactly one cold request at a
// seeded position; the rest are cache hits.
const (
	serveClients = 2
	serveBlock   = 10
)

// serveHeapRequests bounds the window heap_peak_mb is read over: every
// miss leaves its result in lbosd's cache, so over the whole run the
// live heap would grow with throughput, and a faster server would read
// as a fatter one. Over a fixed number of requests it does not.
const serveHeapRequests = 2000

// The lbosd defaults (cmd/lbosd flags): 2 workers, queue 16, 256 MiB.
var lbosdDefaults = serve.Config{Workers: 2, QueueDepth: 16, CacheBytes: 256 << 20}

// hitSpecs are the specs warmed during setup and then repeated as cache
// hits; their seeds come from the benchmark seed. They span small and
// large result documents (0.9–2.3 KB of rendered tables).
var hitSpecs = []serve.Spec{
	{Experiment: "table1", Reps: 1, Scale: 32},
	{Experiment: "fig1", Reps: 1, Scale: 32},
	{Experiment: "abl-horizon", Reps: 1, Scale: 32},
	{Experiment: "fig3t", Reps: 1, Scale: 32},
}

// missSpecs alternate as the cold requests, each with a fresh seed.
var missSpecs = []serve.Spec{
	{Experiment: "open-bakeoff", Reps: 1, Scale: 32},
	{Experiment: "predict-bakeoff", Reps: 1, Scale: 8},
}

// hitFormats are the ways a hit is fetched: half POST /v1/runs?wait=1,
// half GET /v1/runs/{id}/result in one of three formats.
var hitFormats = []string{"post", "post", "post", "json", "csv", "text"}

// request is one generated request of the serve-mix stream.
type request struct {
	miss   bool
	spec   serve.Spec // canonical
	body   []byte     // the POST body
	hit    int        // index into the warmed specs, for hits
	format string     // one of hitFormats, for hits
}

// mixStream generates the request stream: request i is a pure function
// of (seed, i), so the timed and the traced runs send the same requests
// in the same order, whichever client sends each.
type mixStream struct {
	seed uint64
	hits []serve.Spec // canonical, with seeds
}

func newMixStream(seed uint64) (*mixStream, error) {
	s := &mixStream{seed: deriveSeed(seed, "serve-mix")}
	for i, h := range hitSpecs {
		h.Seed = deriveSeed(s.seed, fmt.Sprintf("hit/%d", i))
		c, err := h.Canonicalize()
		if err != nil {
			return nil, err
		}
		s.hits = append(s.hits, c)
	}
	return s, nil
}

func (s *mixStream) at(i int) (request, error) {
	block := i / serveBlock
	rng := xrand.New(s.seed ^ uint64(block)*0x9e3779b97f4a7c15)
	if i%serveBlock == rng.Intn(serveBlock) {
		spec := missSpecs[block%len(missSpecs)]
		spec.Seed = deriveSeed(s.seed, fmt.Sprintf("miss/%d", block))
		c, err := spec.Canonicalize()
		if err != nil {
			return request{}, err
		}
		return request{miss: true, spec: c, body: specJSON(c)}, nil
	}
	rng = xrand.New(s.seed ^ uint64(i)*0xbf58476d1ce4e5b9)
	h := rng.Intn(len(s.hits))
	return request{spec: s.hits[h], body: specJSON(s.hits[h]), hit: h,
		format: hitFormats[rng.Intn(len(hitFormats))]}, nil
}

// specJSON is the wire form of a canonical spec.
func specJSON(s serve.Spec) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a struct of scalars always marshals
	}
	return b
}

// mixServer is one lbosd instance on a loopback listener plus the
// client that drives it, with the warmed hits' reference outputs.
type mixServer struct {
	srv    *serve.Server
	http   *http.Server
	base   string
	client *http.Client
	served chan error
	// per warmed spec: result ID and expected bytes by format
	ids    []string
	expect []map[string][]byte
	// cache is a benchmark-owned serve.Cache holding the warmed
	// results, probed by the traced run's Cache.Get span.
	cache *serve.Cache
}

func startMixServer(stream *mixStream) (*mixServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ms := &mixServer{
		srv:    serve.New(lbosdDefaults),
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		cache:  serve.NewCache(lbosdDefaults.CacheBytes),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveClients,
			MaxIdleConnsPerHost: serveClients,
		}},
	}
	ms.http = &http.Server{Handler: ms.srv.Handler()}
	go func() { ms.served <- ms.http.Serve(ln) }()

	for _, spec := range stream.hits {
		status, verdict, body, err := ms.post(specJSON(spec))
		if err != nil {
			ms.close()
			return nil, err
		}
		id, err := checkMiss(spec, ms.srv.Version(), status, verdict, body)
		if err != nil {
			ms.close()
			return nil, fmt.Errorf("warming %s: %w", spec.Experiment, err)
		}
		want := map[string][]byte{"post": body, "json": body}
		for _, f := range []string{"csv", "text"} {
			if want[f], err = renderTables(body, f); err != nil {
				ms.close()
				return nil, err
			}
		}
		ms.ids = append(ms.ids, id)
		ms.expect = append(ms.expect, want)
		ms.cache.Put(id, serve.Entry{Body: body})
	}
	return ms, nil
}

// close stops the HTTP server, waits for its Serve loop to return and
// drains the worker pool.
func (ms *mixServer) close() {
	ms.http.Close()
	<-ms.served
	ms.client.CloseIdleConnections()
	ms.srv.Drain()
}

func (ms *mixServer) post(body []byte) (status int, verdict string, out []byte, err error) {
	resp, err := ms.client.Post(ms.base+"/v1/runs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	out, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Lbos-Cache"), out, err
}

func (ms *mixServer) get(path string) (status int, out []byte, err error) {
	resp, err := ms.client.Get(ms.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err = io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// metricsz fetches the server's /v1/metricsz counters and histograms.
func (ms *mixServer) metricsz() (metrics.Snapshot, error) {
	status, body, err := ms.get("/v1/metricsz")
	if err != nil {
		return metrics.Snapshot{}, err
	}
	if status != http.StatusOK {
		return metrics.Snapshot{}, fmt.Errorf("metricsz: status %d", status)
	}
	var doc struct{ Metrics metrics.Snapshot }
	err = json.Unmarshal(body, &doc)
	return doc.Metrics, err
}

// checkMiss validates a cold request's reply: 200, verdict miss, and a
// result document addressed by the spec's own key that echoes its
// experiment and has tables. It returns the result ID.
func checkMiss(spec serve.Spec, version string, status int, verdict string, body []byte) (string, error) {
	if status != http.StatusOK {
		return "", fmt.Errorf("status %d: %.200s", status, body)
	}
	if verdict != serve.CacheMiss {
		return "", fmt.Errorf("cold request answered with verdict %q", verdict)
	}
	var doc serve.ResultDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return "", fmt.Errorf("result document: %w", err)
	}
	if want := spec.Key(version); doc.ID != want {
		return "", fmt.Errorf("result ID %.12s, spec key %.12s", doc.ID, want)
	}
	if doc.Experiment.ID != spec.Experiment || len(doc.Tables) == 0 {
		return "", fmt.Errorf("result for %q with %d tables", doc.Experiment.ID, len(doc.Tables))
	}
	return doc.ID, nil
}

// renderTables renders a result document's tables as CSV or text with
// the public exp.Table renderers, in the layout lbosd's result endpoint
// documents: tables separated by a blank line, CSV tables headed by a
// "# table:" comment.
func renderTables(body []byte, format string) ([]byte, error) {
	var doc serve.ResultDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	for i, td := range doc.Tables {
		if i > 0 {
			out.WriteByte('\n')
		}
		t := &exp.Table{Title: td.Title, Columns: td.Columns, Rows: td.Rows, Notes: td.Notes}
		if format == "csv" {
			fmt.Fprintf(&out, "# table: %s\n", bytes.ReplaceAll([]byte(td.Title), []byte("\n"), []byte(" ")))
			t.CSV(&out)
		} else {
			t.Render(&out)
		}
	}
	return out.Bytes(), nil
}

// outcome is one completed request.
type outcome struct {
	i       int
	miss    bool
	seconds float64
	digest  string
	err     error
	spec    serve.Spec // cold requests: the spec, for the replay check
	// body is the reply of the first cold request of each experiment,
	// kept for the recompute check (the others keep only their digest,
	// so the benchmark's own memory stays out of heap_peak_mb).
	body []byte
}

// spans collects the traced run's per-call host times, in µs.
type spans struct {
	mu    sync.Mutex
	us    map[string][]float64
	posts int // POST hits replayed through ServeHTTP
}

func (s *spans) add(name string, sw clock.Stopwatch) {
	us := float64(sw.Elapsed().Nanoseconds()) / 1e3
	s.mu.Lock()
	s.us[name] = append(s.us[name], us)
	s.mu.Unlock()
}

// probe times the public serve calls a hit goes through, fed the same
// request: the spec codec, the key, a Cache.Get, the handler itself
// (in process, through httptest) and, for CSV/text, the render.
func (s *spans) probe(ms *mixServer, req request) error {
	sw := clock.Start()
	spec, err := serve.ParseSpec(req.body)
	s.add("parse", sw)
	if err != nil {
		return err
	}
	sw = clock.Start()
	spec, err = spec.Canonicalize()
	_ = spec.CanonicalJSON()
	s.add("canon", sw)
	if err != nil {
		return err
	}
	sw = clock.Start()
	key := spec.Key(ms.srv.Version())
	s.add("key", sw)
	sw = clock.Start()
	_, ok := ms.cache.Get(key)
	s.add("cache_get", sw)
	if !ok {
		return fmt.Errorf("span cache has no entry for %.12s", key)
	}

	var hr *http.Request
	if req.format == "post" {
		hr = httptest.NewRequest("POST", "/v1/runs?wait=1", bytes.NewReader(req.body))
	} else {
		hr = httptest.NewRequest("GET", "/v1/runs/"+key+"/result?format="+req.format, nil)
	}
	w := httptest.NewRecorder()
	sw = clock.Start()
	ms.srv.Handler().ServeHTTP(w, hr)
	s.add("handler_hit", sw)
	if req.format == "post" {
		s.mu.Lock()
		s.posts++
		s.mu.Unlock()
	}
	if !bytes.Equal(w.Body.Bytes(), ms.expect[req.hit][req.format]) {
		return fmt.Errorf("in-process %s reply differs from the warmed bytes", req.format)
	}
	if req.format == "csv" || req.format == "text" {
		sw = clock.Start()
		_, err := renderTables(ms.expect[req.hit]["json"], req.format)
		s.add("render", sw)
		return err
	}
	return nil
}

// do sends one request and checks its reply.
func (ms *mixServer) do(req request) (digest string, body []byte, err error) {
	if req.miss {
		status, verdict, body, err := ms.post(req.body)
		if err == nil {
			_, err = checkMiss(req.spec, ms.srv.Version(), status, verdict, body)
		}
		return digestOf(body), body, err
	}
	var (
		status  int
		verdict = serve.CacheHit
	)
	if req.format == "post" {
		status, verdict, body, err = ms.post(req.body)
	} else {
		status, body, err = ms.get("/v1/runs/" + ms.ids[req.hit] + "/result?format=" + req.format)
	}
	switch {
	case err != nil:
	case status != http.StatusOK:
		err = fmt.Errorf("%s hit: status %d: %.200s", req.format, status, body)
	case verdict != serve.CacheHit:
		err = fmt.Errorf("repeated request answered with verdict %q", verdict)
	case !bytes.Equal(body, ms.expect[req.hit][req.format]):
		err = fmt.Errorf("%s hit differs from the bytes its miss produced", req.format)
	}
	return digestOf(body), nil, err
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runServeMix is the serve-mix workload: serveClients closed-loop
// clients against lbosd's server on a loopback listener in this
// process. Setup starts the server and warms the hit specs. Every reply
// is checked: hits must be byte-identical to the miss that filled their
// key (and carry the hit verdict on POST), cold requests must be
// correct result documents for their spec. After the timed requests
// every cold spec is sent again and must come back a hit with the same
// bytes, and the first cold request of each experiment is recomputed
// directly through the registry and must have the same tables.
func runServeMix(cfg runConfig) *runResult {
	res := &runResult{layer: map[string]float64{}}
	stream, err := newMixStream(cfg.seed)
	if err != nil {
		res.fail("setup: %v", err)
		return res
	}
	var ms *mixServer
	err = timeSetups(res, func() error {
		if ms != nil {
			ms.close()
		}
		var err error
		ms, err = startMixServer(stream)
		return err
	})
	if err != nil {
		res.fail("setup: %v", err)
		return res
	}
	defer ms.close()
	before, err := ms.metricsz()
	if err != nil {
		res.fail("metricsz: %v", err)
		return res
	}

	var sp *spans
	if cfg.traced {
		sp = &spans{us: map[string][]float64{}}
	}
	var (
		next, completed atomic.Int64
		perClient       = make([][]outcome, serveClients)
		wg              sync.WaitGroup
	)
	timedPhase(cfg, res, func(hw *heapWatch, total clock.Stopwatch) {
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var mine []outcome
				for total.Elapsed().Seconds() < cfg.seconds || next.Load() == 0 {
					i := int(next.Add(1) - 1)
					req, err := stream.at(i)
					if err != nil {
						mine = append(mine, outcome{i: i, err: err})
						continue
					}
					sw := clock.Start()
					digest, body, err := ms.do(req)
					o := outcome{i: i, miss: req.miss, seconds: sw.Elapsed().Seconds(),
						digest: digest, err: err, spec: req.spec}
					if req.miss && i/serveBlock < len(missSpecs) {
						o.body = body
					}
					if err == nil && sp != nil && !req.miss {
						o.err = sp.probe(ms, req)
					}
					mine = append(mine, o)
					if completed.Add(1) == serveHeapRequests {
						hw.freeze()
					}
				}
				perClient[c] = mine
			}(c)
		}
		wg.Wait()
	})

	var outcomes []outcome
	for _, mine := range perClient {
		outcomes = append(outcomes, mine...)
	}
	sort.Slice(outcomes, func(a, b int) bool { return outcomes[a].i < outcomes[b].i })
	var hitMs, missMs []float64
	for _, o := range outcomes {
		res.opS = append(res.opS, o.seconds)
		res.digests = append(res.digests, o.digest)
		if o.err != nil {
			res.fail("request %d: %v", o.i, o.err)
			continue
		}
		if o.miss {
			missMs = append(missMs, o.seconds*1e3)
		} else {
			hitMs = append(hitMs, o.seconds*1e3)
		}
	}
	after, err := ms.metricsz()
	if err != nil {
		res.fail("metricsz: %v", err)
		return res
	}
	verifyMisses(ms, outcomes, res)
	res.summary = append(res.summary,
		reportLine{"hit_ms_p50", quantile(hitMs, 0.50), "ms", len(hitMs)},
		reportLine{"hit_ms_p99", quantile(hitMs, 0.99), "ms", len(hitMs)},
		reportLine{"miss_ms_p50", quantile(missMs, 0.50), "ms", len(missMs)},
		reportLine{"miss_ms_p90", quantile(missMs, 0.90), "ms", len(missMs)},
	)
	for _, l := range res.summary {
		res.layer["client."+l.name] = l.value
	}
	res.layer["client.miss_frac"] = float64(len(missMs)) / float64(max(len(hitMs)+len(missMs), 1))
	serveLayers(res, before, after, missMs, sp)
	return res
}

// verifyMisses sends every cold spec again, which must be a hit with
// the bytes the miss produced, and recomputes the first cold request of
// each experiment directly through the registry.
func verifyMisses(ms *mixServer, outcomes []outcome, res *runResult) {
	for _, o := range outcomes {
		if !o.miss || o.err != nil {
			continue
		}
		status, verdict, body, err := ms.post(specJSON(o.spec))
		switch {
		case err != nil:
			res.fail("request %d replay: %v", o.i, err)
		case status != http.StatusOK || verdict != serve.CacheHit:
			res.fail("request %d replay: status %d, verdict %q", o.i, status, verdict)
		case digestOf(body) != o.digest:
			res.fail("request %d replay: cached bytes differ from the miss", o.i)
		}
		if o.body == nil {
			continue
		}
		if err := recompute(o.spec, o.body); err != nil {
			res.fail("request %d recompute: %v", o.i, err)
		}
	}
}

// recompute runs a canonical spec through the experiment registry and
// compares its tables with those of the served result document.
func recompute(spec serve.Spec, body []byte) error {
	var doc serve.ResultDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	e, err := exp.ByID(spec.Experiment)
	if err != nil {
		return err
	}
	ctx, err := spec.Context(nil)
	if err != nil {
		return err
	}
	tables := e.Run(ctx)
	if len(tables) != len(doc.Tables) {
		return fmt.Errorf("%d tables, served %d", len(tables), len(doc.Tables))
	}
	for k, t := range tables {
		got, err := json.Marshal(serve.TableDoc{Title: t.Title, Columns: t.Columns, Rows: t.Rows, Notes: t.Notes})
		if err != nil {
			return err
		}
		want, err := json.Marshal(doc.Tables[k])
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return errors.New("table " + t.Title + " differs from the served one")
		}
	}
	return nil
}

// serveLayers fills serve-mix's per-layer values from the server's own
// /v1/metricsz counters over the timed requests (after minus before)
// and from the traced run's spans.
func serveLayers(res *runResult, before, after metrics.Snapshot, missMs []float64, sp *spans) {
	counter := func(name string) float64 {
		return float64(counterOf(after, name) - counterOf(before, name))
	}
	n := float64(res.ops())
	submits := counter("serve.cache.hit") + counter("serve.cache.miss") + counter("serve.cache.join")
	hits := counter("serve.cache.hit")
	if sp != nil {
		submits -= float64(sp.posts)
		hits -= float64(sp.posts)
	}
	if submits > 0 {
		res.layer["serve.hit_frac"] = hits / submits
	}
	res.layer["serve.shed"] = counter("serve.queue.shed") / n
	execN, execSum := histDelta(before, after, "serve.exec_ms")
	if execN > 0 {
		res.layer["serve.exec_ms_mean"] = execSum / execN
		var missSum float64
		for _, v := range missMs {
			missSum += v
		}
		if len(missMs) > 0 {
			res.layer["serve.queue_ms_mean"] = missSum/float64(len(missMs)) - execSum/execN
		}
	}
	if sp == nil {
		return
	}
	for _, name := range []string{"parse", "canon", "key", "cache_get", "handler_hit", "render"} {
		res.layer["serve."+name+"_us"] = median(sp.us[name])
	}
}

func counterOf(s metrics.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// histDelta returns the count and sum a histogram gained between two
// snapshots.
func histDelta(before, after metrics.Snapshot, name string) (n, sum float64) {
	for _, h := range after.Hists {
		if h.Name == name {
			n, sum = float64(h.Count), h.Sum
		}
	}
	for _, h := range before.Hists {
		if h.Name == name {
			n, sum = n-float64(h.Count), sum-h.Sum
		}
	}
	return n, sum
}
