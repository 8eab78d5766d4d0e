package main

import (
	"errors"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"

	"github.com/neu-sns/intl-iot-go/internal/analysis"
	"github.com/neu-sns/intl-iot-go/internal/dnsmsg"
	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/features"
	"github.com/neu-sns/intl-iot-go/internal/httpmsg"
	"github.com/neu-sns/intl-iot-go/internal/ingest"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/pcapio"
	"github.com/neu-sns/intl-iot-go/internal/pii"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
	"github.com/neu-sns/intl-iot-go/internal/tlsmsg"
)

// The analysis collectors call the decoders and the PII scanner from
// inside one visit, so the replica's spans cannot split them. The probes
// repeat that work over the same inputs with a span around each call.

// decodeProbe reads, decodes and dissects every capture under root:
// pcapio record reading, netx link decoding and flow assembly, DNS
// parsing of port-53 payloads, and the SNI and Host lookups the
// destination analysis falls back to on each flow's client payload.
func decodeProbe(tr *Tracer, root string) error {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".pcap") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		return err
	}
	sort.Strings(files)
	for _, path := range files {
		if err := probeFile(tr, path); err != nil {
			return err
		}
	}
	return nil
}

func probeFile(tr *Tracer, path string) error {
	var (
		f    *pcapio.File
		recs []pcapio.Record
		err  error
	)
	tr.Run("pcapio.read", func() {
		if f, err = pcapio.OpenFile(path); err != nil {
			return
		}
		for {
			rec, rerr := f.Next()
			if rerr != nil {
				if !errors.Is(rerr, io.EOF) {
					err = rerr
				}
				return
			}
			recs = append(recs, rec)
		}
	})
	if f != nil {
		defer f.Close()
	}
	if err != nil {
		return err
	}
	tr.Count("pcapio.records", float64(len(recs)))

	var (
		pkts    []*netx.Packet
		derrors int
	)
	tr.Run("netx.decode", func() {
		for _, rec := range recs {
			link := rec.Link
			if link == 0 {
				link = f.LinkType()
			}
			p, derr := netx.DecodeLink(rec.Time, rec.Data, link)
			if derr != nil {
				derrors++
				continue
			}
			pkts = append(pkts, p)
		}
	})
	var ups [][]byte
	tr.Run("netx.flows", func() {
		for _, fl := range netx.AssembleFlows(pkts) {
			if up := fl.PayloadUp(4096); len(up) > 0 {
				ups = append(ups, up)
			}
		}
	})
	tr.Count("netx.decode_errors", float64(derrors))
	tr.Count("netx.flows", float64(len(ups)))
	tr.Run("dnsmsg.parse", func() {
		for _, p := range pkts {
			if p.UDP != nil && (p.UDP.SrcPort == 53 || p.UDP.DstPort == 53) && len(p.Payload) > 0 {
				_, _ = dnsmsg.Parse(p.Payload) // malformed answers are the analysis's concern, not the probe's
			}
		}
	})
	var sni, host int
	tr.Run("tlsmsg.sni", func() {
		for _, up := range ups {
			if _, ok := tlsmsg.ExtractSNI(up); ok {
				sni++
			}
		}
	})
	tr.Run("httpmsg.host", func() {
		for _, up := range ups {
			if _, ok := httpmsg.ExtractHost(up); ok {
				host++
			}
		}
	})
	tr.Count("tlsmsg.sni_hits", float64(sni))
	tr.Count("httpmsg.host_hits", float64(host))
	return nil
}

// contentProbe replays the controlled leg and splits the content
// collector's visit in two: the PII scan of every payload and the
// feature vector of every labelled experiment. Experiments are degraded
// first, untimed, because the collector sees degraded packets.
func contentProbe(tr *Tracer, synth bool, seed int64, dir string) error {
	var src interface {
		RunControlled(experiments.Visitor) experiments.Stats
	}
	if synth {
		cfg := synthConfig(seed)
		cfg.Workers = 1
		r, err := experiments.NewRunner(cfg)
		if err != nil {
			return err
		}
		src = r
	} else {
		s, err := ingest.Open(dir, ingestOptions(1))
		if err != nil {
			return err
		}
		src = s
	}
	scanners := make(map[string]*pii.Scanner)
	src.RunControlled(func(exp *testbed.Experiment) {
		pkts, _ := analysis.DedupRetransmissions(exp.Packets)
		pkts, _ = analysis.FilterCoverFlows(pkts)
		id := exp.Device.ID()
		sc := scanners[id]
		if sc == nil {
			sc = pii.NewScanner(exp.Device.PII)
			scanners[id] = sc
		}
		var scanned, matches int
		tr.Run("pii.scan", func() {
			for _, p := range pkts {
				if len(p.Payload) > 0 {
					scanned += len(p.Payload)
					matches += len(sc.Scan(p.Payload))
				}
			}
		})
		tr.Count("pii.bytes", float64(scanned))
		tr.Count("pii.matches", float64(matches))
		if (exp.Kind == testbed.KindPower || exp.Kind == testbed.KindInteraction) && len(pkts) >= 2 {
			tr.Run("features.vector", func() { features.Vector(pkts, features.SetPaper) })
		}
		exp.Done()
	})
	return nil
}
