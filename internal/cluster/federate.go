package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"strings"

	"github.com/xatu-go/xatu/internal/telemetry"
)

// federatedMetrics serves the coordinator's own families followed by
// every live node's scraped families with a node="id" label injected
// into each sample, deduping # HELP / # TYPE headers across sources so
// the merged exposition stays valid Prometheus text format.
//
// Scrape failures are first-class: each failure increments the node's
// xatu_cluster_scrape_failures_total counter, and the node's last
// successfully scraped families are re-served (so dashboards do not see
// the node's series vanish mid-incident) with
// xatu_cluster_scrape_stale{node="id"} set to 1 flagging the staleness.
func (c *Coordinator) federatedMetrics(w http.ResponseWriter, r *http.Request) {
	var out bytes.Buffer
	seenMeta := make(map[string]bool)
	if reg := c.cfg.Telemetry; reg != nil {
		var own bytes.Buffer
		if err := reg.WritePrometheus(&own); err == nil {
			appendExposition(&out, own.Bytes(), "", seenMeta)
		}
	}
	nodes := c.CurrentTable().Nodes
	bodies := c.scrapeAll(nodes, "/metrics")
	stale := make([]bool, len(nodes))
	for i, n := range nodes {
		body := bodies[i]
		if body == nil {
			c.countScrapeFailure(n.ID)
			if cached := c.cachedScrape(n.ID); cached != nil {
				body, stale[i] = cached, true
			}
		} else {
			c.storeScrape(n.ID, body)
		}
		if body != nil {
			appendExposition(&out, body, n.ID, seenMeta)
		}
	}
	if len(nodes) > 0 {
		out.WriteString("# HELP xatu_cluster_scrape_stale 1 when the node's families in this exposition are a cached copy (its last scrape failed).\n")
		out.WriteString("# TYPE xatu_cluster_scrape_stale gauge\n")
		for i, n := range nodes {
			v := 0
			if stale[i] {
				v = 1
			}
			fmt.Fprintf(&out, "xatu_cluster_scrape_stale{node=%q} %d\n", n.ID, v)
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(out.Bytes())
}

// countScrapeFailure bumps the node's scrape-failure counter, lazily
// registering the labeled family on first failure (the registry rejects
// duplicate registration, so the map is the idempotence guard).
func (c *Coordinator) countScrapeFailure(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.Telemetry == nil {
		return
	}
	ctr, ok := c.scrapeFail[id]
	if !ok {
		ctr = c.cfg.Telemetry.Counter("xatu_cluster_scrape_failures_total",
			"Failed federation scrapes of the node's /metrics endpoint.",
			telemetry.Label{Name: "node", Value: id})
		c.scrapeFail[id] = ctr
	}
	ctr.Inc()
}

// storeScrape retains the node's latest good exposition body for stale
// re-serving; cachedScrape returns it (nil if the node never scraped).
func (c *Coordinator) storeScrape(id string, body []byte) {
	c.mu.Lock()
	c.scrapeCache[id] = body
	c.mu.Unlock()
}

func (c *Coordinator) cachedScrape(id string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.scrapeCache[id]
}

// appendExposition copies one source's exposition into dst. Samples get
// a node label injected when node is non-empty; # HELP / # TYPE lines
// already emitted for a family (by any source) are skipped.
func appendExposition(dst *bytes.Buffer, body []byte, node string, seenMeta map[string]bool) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if f := strings.Fields(line); len(f) >= 3 {
				key := f[1] + " " + f[2] // "HELP name" / "TYPE name"
				if seenMeta[key] {
					continue
				}
				seenMeta[key] = true
			}
			dst.WriteString(line)
			dst.WriteByte('\n')
			continue
		}
		if node != "" {
			line = injectNodeLabel(line, node)
		}
		dst.WriteString(line)
		dst.WriteByte('\n')
	}
}

// injectNodeLabel rewrites one sample line to carry node="id". The first
// '{' on the line necessarily opens the label set (metric names cannot
// contain it), so insertion there is safe even when label values contain
// spaces or braces; unlabeled samples split at the first space, which
// cannot appear in a metric name.
func injectNodeLabel(line, node string) string {
	if i := strings.IndexByte(line, '{'); i >= 0 {
		return line[:i+1] + `node="` + node + `",` + line[i+1:]
	}
	if i := strings.IndexByte(line, ' '); i > 0 {
		return line[:i] + `{node="` + node + `"}` + line[i:]
	}
	return line
}
