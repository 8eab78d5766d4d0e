package main

import "time"

// metricDef names one reported metric and its unit. The lists below are
// the ones BENCHMARK.json declares; a test holds the two in step.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is reported on every workload with tracing off. Batch
// workloads count one pass as one job; the daemon counts server jobs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"mb_per_s", "MB/s"},
	{"experiments_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"job_p50_s", "s"},
	{"job_tail_s", "s"},
}

// perLayer is reported on every workload from the traced run; a layer a
// workload never reaches reads 0.
var perLayer = []metricDef{
	{"synth.busy_s", "s"},
	{"synth.bytes", "bytes"},
	{"ingest.open_s", "s"},
	{"ingest.deliver_s", "s"},
	{"ingest.files", "count"},
	{"ingest.records", "count"},
	{"ingest.skips", "count"},
	{"pcapio.read_s", "s"},
	{"pcapio.records", "count"},
	{"netx.decode_s", "s"},
	{"netx.decode_errors", "count"},
	{"netx.flows_s", "s"},
	{"netx.flows", "count"},
	{"dnsmsg.parse_s", "s"},
	{"tlsmsg.sni_s", "s"},
	{"tlsmsg.sni_hit_ratio", "ratio"},
	{"httpmsg.host_s", "s"},
	{"httpmsg.host_hit_ratio", "ratio"},
	{"analysis.degrade_s", "s"},
	{"analysis.degrade_visits", "count"},
	{"analysis.dest_s", "s"},
	{"analysis.dest_visits", "count"},
	{"analysis.enc_s", "s"},
	{"analysis.enc_visits", "count"},
	{"analysis.content_s", "s"},
	{"analysis.content_visits", "count"},
	{"analysis.identify_s", "s"},
	{"analysis.identify_visits", "count"},
	{"pii.scan_s", "s"},
	{"pii.bytes", "bytes"},
	{"pii.matches", "count"},
	{"features.vector_s", "s"},
	{"analysis.infer_s", "s"},
	{"analysis.detector_build_s", "s"},
	{"ml.datasets", "count"},
	{"ml.rows", "count"},
	{"analysis.detect_idle_s", "s"},
	{"analysis.detect_idle_visits", "count"},
	{"analysis.detect_uncontrolled_s", "s"},
	{"analysis.detect_uncontrolled_visits", "count"},
	{"report.render_s", "s"},
	{"report.bytes", "bytes"},
	{"service.upload_s", "s"},
	{"service.queue_wait_s", "s"},
	{"service.run_s.ingest", "s"},
	{"service.run_s.fleet", "s"},
	{"service.report_fetch_s", "s"},
	{"service.metrics_fetch_s", "s"},
	{"service.metrics_bytes_per_job", "count"},
	{"obs.spans", "count"},
	{"trace.wall_s", "s"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// visitCounted are the span names whose span count is also reported.
var visitCounted = map[string]bool{
	"analysis.degrade": true, "analysis.dest": true, "analysis.enc": true,
	"analysis.content": true, "analysis.identify": true,
	"analysis.detect_idle": true, "analysis.detect_uncontrolled": true,
}

// layerMetrics turns a batch trace into per-layer metrics: each layer
// span's summed self time as "<span>_s", visit counts, the recorded
// counts, hit ratios, and coverage — the share of the traced pass's wall
// time that some layer span accounts for. The synthesis layer's time is
// the runner's own time outside the visitor plus building the labs.
func layerMetrics(self map[string]LayerTime, counts map[string]float64, wall time.Duration) map[string]float64 {
	m := make(map[string]float64)
	for name, lt := range self {
		switch name {
		case "pass", "probe":
			continue
		case "synth", "synth.build":
			m["synth.busy_s"] += lt.Self.Seconds()
			continue
		}
		m[name+"_s"] = lt.Self.Seconds()
		if visitCounted[name] {
			m[name+"_visits"] = float64(lt.Count)
		}
	}
	for name, v := range counts {
		m[name] = v
	}
	if counts["netx.flows"] > 0 {
		m["tlsmsg.sni_hit_ratio"] = counts["tlsmsg.sni_hits"] / counts["netx.flows"]
		m["httpmsg.host_hit_ratio"] = counts["httpmsg.host_hits"] / counts["netx.flows"]
	}
	delete(m, "tlsmsg.sni_hits")
	delete(m, "httpmsg.host_hits")
	if wall > 0 {
		m["trace.wall_s"] = wall.Seconds()
		m["trace.coverage"] = 1 - self["pass"].Self.Seconds()/wall.Seconds()
	}
	return m
}
