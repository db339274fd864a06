package cluster

import (
	_ "embed"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/xatu-go/xatu/internal/trace"
)

// consoleHTML is the entire ops console: one embedded file, no external
// assets, served on /console (netsim-in-a-box idiom — the whole fleet
// debuggable from one browser tab against the coordinator alone).
//
//go:embed console.html
var consoleHTML []byte

func serveConsole(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write(consoleHTML)
}

// statusNode is one node's row in /v1/status: registry info plus the
// node's own /healthz body scraped at request time.
type statusNode struct {
	NodeInfo
	LastSeenMS int64           `json:"lastSeenMs"` // ms since last heartbeat
	Up         bool            `json:"up"`         // healthz scrape succeeded
	Health     json.RawMessage `json:"health,omitempty"`
}

// statusDoc is the /v1/status document driving the console's fleet and
// alert panels.
type statusDoc struct {
	Table     Table        `json:"table"`
	Nodes     []statusNode `json:"nodes"`
	Alerts    []WireAlert  `json:"alerts"`
	TraceRate int          `json:"traceRate"`
}

// maxStatusAlerts bounds the alert tail shipped to the console.
const maxStatusAlerts = 200

func (c *Coordinator) serveStatus(w http.ResponseWriter, _ *http.Request) {
	now := c.cfg.Now()
	c.mu.Lock()
	t := c.table
	rows := make([]statusNode, 0, len(c.members))
	for _, m := range c.members {
		rows = append(rows, statusNode{NodeInfo: m.info, LastSeenMS: now.Sub(m.lastSeen).Milliseconds()})
	}
	alerts := c.alerts
	if len(alerts) > maxStatusAlerts {
		alerts = alerts[len(alerts)-maxStatusAlerts:]
	}
	alerts = append([]WireAlert(nil), alerts...)
	c.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })

	// Per-node health is scraped live: the registry knows who *should*
	// be up; the scrape shows who actually answers and on which table
	// version.
	infos := make([]NodeInfo, len(rows))
	for i := range rows {
		infos[i] = rows[i].NodeInfo
	}
	for i, body := range c.scrapeAll(infos, "/healthz") {
		if json.Valid(body) {
			rows[i].Up, rows[i].Health = true, body
		}
	}
	writeJSON(w, statusDoc{Table: t, Nodes: rows, Alerts: alerts, TraceRate: c.tracer.Rate()})
}

// wireSpan mirrors the trace package's span JSON — the shape every
// node's /debug/trace serves and the console consumes.
type wireSpan struct {
	Customer  string    `json:"customer"`
	At        time.Time `json:"at"`
	Stage     string    `json:"stage"`
	Node      string    `json:"node,omitempty"`
	Wall      time.Time `json:"wall"`
	LatencyUS int64     `json:"latency_us,omitempty"`
	Detail    string    `json:"detail,omitempty"`
}

type nodeTraceDoc struct {
	Node   string            `json:"node"`
	Rate   int               `json:"rate"`
	Spans  []wireSpan        `json:"spans"`
	Stages []trace.StageStat `json:"stages"`
}

// timeline is one assembled cross-node span chain: every span any node
// recorded for the same (customer, at) detection step, ordered by wall
// clock. A step that was exported on the router, decoded on node A,
// forwarded to node B, stepped there, and fanned into the coordinator
// shows up as one timeline with per-hop node labels.
type timeline struct {
	Customer string     `json:"customer"`
	At       time.Time  `json:"at"`
	Spans    []wireSpan `json:"spans"`
}

type tracesDoc struct {
	Rate      int                          `json:"rate"`
	Timelines []timeline                   `json:"timelines"`
	Stages    map[string][]trace.StageStat `json:"stages"` // per source node
}

// serveTraces scrapes every node's /debug/trace, merges the spans with
// the coordinator's own (fan-in) spans, and groups them by the
// (customer, at) join key into cross-node timelines.
func (c *Coordinator) serveTraces(w http.ResponseWriter, _ *http.Request) {
	docs := c.collectTraceDocs()
	type key struct {
		customer string
		atUnix   int64
	}
	groups := make(map[key][]wireSpan)
	stages := make(map[string][]trace.StageStat)
	for _, d := range docs {
		if len(d.Stages) > 0 && d.Node != "" {
			stages[d.Node] = d.Stages
		}
		for _, s := range d.Spans {
			if s.At.IsZero() {
				continue // origin not yet tied to a step
			}
			groups[key{s.Customer, s.At.UnixNano()}] = append(groups[key{s.Customer, s.At.UnixNano()}], s)
		}
	}
	out := tracesDoc{Rate: c.tracer.Rate(), Timelines: make([]timeline, 0, len(groups)), Stages: stages}
	for k, spans := range groups {
		sort.Slice(spans, func(i, j int) bool { return spans[i].Wall.Before(spans[j].Wall) })
		out.Timelines = append(out.Timelines, timeline{
			Customer: k.customer, At: time.Unix(0, k.atUnix), Spans: spans,
		})
	}
	sort.Slice(out.Timelines, func(i, j int) bool {
		if !out.Timelines[i].At.Equal(out.Timelines[j].At) {
			return out.Timelines[i].At.Before(out.Timelines[j].At)
		}
		return out.Timelines[i].Customer < out.Timelines[j].Customer
	})
	writeJSON(w, out)
}

func (c *Coordinator) collectTraceDocs() []nodeTraceDoc {
	bodies := append(c.scrapeAll(c.CurrentTable().Nodes, "/debug/trace"), c.tracer.JSON())
	docs := make([]nodeTraceDoc, len(bodies))
	for i, body := range bodies {
		_ = json.Unmarshal(body, &docs[i])
	}
	return docs
}

type nodeFlightDoc struct {
	Node   string              `json:"node"`
	Events []trace.FlightEvent `json:"events"`
	Dumps  []trace.Dump        `json:"dumps"`
}

type incidentsDoc struct {
	Events []trace.FlightEvent `json:"events"`
	Dumps  []trace.Dump        `json:"dumps"`
}

// serveIncidents merges every node's flight recorder with the
// coordinator's own into one fleet-wide incident timeline: all events
// ordered by time, all incident dumps oldest first.
func (c *Coordinator) serveIncidents(w http.ResponseWriter, _ *http.Request) {
	bodies := append(c.scrapeAll(c.CurrentTable().Nodes, "/debug/flight"), c.flight.JSON())
	docs := make([]nodeFlightDoc, len(bodies))
	for i, body := range bodies {
		_ = json.Unmarshal(body, &docs[i])
	}
	out := incidentsDoc{Events: []trace.FlightEvent{}, Dumps: []trace.Dump{}}
	for _, d := range docs {
		out.Events = append(out.Events, d.Events...)
		out.Dumps = append(out.Dumps, d.Dumps...)
	}
	sort.Slice(out.Events, func(i, j int) bool { return out.Events[i].At.Before(out.Events[j].At) })
	sort.Slice(out.Dumps, func(i, j int) bool { return out.Dumps[i].At.Before(out.Dumps[j].At) })
	writeJSON(w, out)
}

// scrapeAll GETs path off every node's telemetry listener at once,
// bounded by the coordinator's HTTP client timeout. bodies[i] is nil when
// node i has no listener or its scrape failed.
func (c *Coordinator) scrapeAll(nodes []NodeInfo, path string) [][]byte {
	bodies := make([][]byte, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		if n.Metrics == "" {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.client.Get("http://" + n.Metrics + path)
			if err == nil {
				bodies[i], err = io.ReadAll(io.LimitReader(resp.Body, 8<<20))
				resp.Body.Close()
			}
			if err != nil {
				bodies[i] = nil
				c.cfg.Logf("cluster: scrape %s%s: %v", n.ID, path, err)
			}
		}()
	}
	wg.Wait()
	return bodies
}
