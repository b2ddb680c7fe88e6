package obs

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestRegistryRender(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("requests_total", "requests served", Labels{"code": "200"})
	c.Add(3)
	reg.Counter("requests_total", "requests served", Labels{"code": "500"}).Inc()
	g := reg.Gauge("temperature", "current temperature", nil)
	g.Set(36.5)

	got := reg.Render()
	want := strings.Join([]string{
		`# HELP requests_total requests served`,
		`# TYPE requests_total counter`,
		`requests_total{code="200"} 3`,
		`requests_total{code="500"} 1`,
		`# HELP temperature current temperature`,
		`# TYPE temperature gauge`,
		`temperature 36.5`,
		``,
	}, "\n")
	if got != want {
		t.Errorf("render mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("hits_total", "hits", Labels{"k": "v"})
	b := reg.Counter("hits_total", "hits", Labels{"k": "v"})
	if a != b {
		t.Error("same (name, labels) returned two counter instances")
	}
	if c := reg.Counter("hits_total", "hits", Labels{"k": "other"}); c == a {
		t.Error("different labels returned the same instance")
	}
}

func TestRegistryConflictsPanic(t *testing.T) {
	cases := []struct {
		name string
		f    func(reg *Registry)
	}{
		{"kind mismatch", func(reg *Registry) {
			reg.Counter("m", "h", nil)
			reg.Gauge("m", "h", nil)
		}},
		{"help mismatch", func(reg *Registry) {
			reg.Counter("m", "one", nil)
			reg.Counter("m", "two", nil)
		}},
		{"bad metric name", func(reg *Registry) {
			reg.Counter("bad name", "h", nil)
		}},
		{"bad label name", func(reg *Registry) {
			reg.Counter("m", "h", Labels{"bad label": "v"})
		}},
		{"negative counter delta", func(reg *Registry) {
			reg.Counter("m", "h", nil).Add(-1)
		}},
		{"histogram bounds not increasing", func(reg *Registry) {
			reg.Histogram("m", "h", []float64{1, 1}, nil)
		}},
		{"histogram bounds changed", func(reg *Registry) {
			reg.Histogram("m", "h", []float64{1, 2}, nil)
			reg.Histogram("m", "h", []float64{1, 3}, nil)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.f(NewRegistry())
		})
	}
}

func TestLabelValueEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "h", Labels{"k": "a\"b\\c\nd"}).Inc()
	got := reg.Render()
	if !strings.Contains(got, `m{k="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", got)
	}
}

func TestGaugeAddConcurrent(t *testing.T) {
	g := NewRegistry().Gauge("g", "h", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Get(); got != 8000 {
		t.Errorf("concurrent Gauge.Add lost updates: %v, want 8000", got)
	}
}

// TestGroupMatchesCounterSet pins the format of the daemon's drain-time
// counter dump — "name=value" pairs in sorted name order — and checks
// that Snapshot, Names and Get agree with it.
func TestGroupMatchesCounterSet(t *testing.T) {
	g := NewRegistry().Group("events_total", "daemon events", "event", "reports_ok", "drop_crc", "ingest_shed", "queries")
	ops := []struct {
		name  string
		delta int64
	}{
		{"reports_ok", 5}, {"drop_crc", 2}, {"reports_ok", 1}, {"queries", 40},
	}
	for _, op := range ops {
		g.Add(op.name, op.delta)
	}
	if got, want := g.String(), "drop_crc=2 ingest_shed=0 queries=40 reports_ok=6"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	want := map[string]int64{"drop_crc": 2, "ingest_shed": 0, "queries": 40, "reports_ok": 6}
	if got := g.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("Snapshot() = %v, want %v", got, want)
	}
	if got, want := g.Names(), []string{"drop_crc", "ingest_shed", "queries", "reports_ok"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
	if g.Get("queries") != 40 {
		t.Errorf("Get(queries) = %d, want 40", g.Get("queries"))
	}
}

func TestGroupPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty event":  func() { NewRegistry().Group("m", "h", "event", "a", "") },
		"dup event":    func() { NewRegistry().Group("m", "h", "event", "a", "a") },
		"unknown inc":  func() { NewRegistry().Group("m", "h", "event", "a").Inc("b") },
		"unknown get":  func() { _ = NewRegistry().Group("m", "h", "event", "a").Get("b") },
		"negative add": func() { NewRegistry().Group("m", "h", "event", "a").Add("a", -2) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		})
	}
}

// TestRegistryConcurrentObserveRender is the race-mode gate for the
// lock-free hot path: writers on every metric kind race a continuous
// scraper, and the final counts must still be exact.
func TestRegistryConcurrentObserveRender(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "c", nil)
	g := reg.Gauge("g", "g", nil)
	h := reg.Histogram("h_seconds", "h", DefLatencyBuckets(), nil)
	grp := reg.Group("events_total", "e", "event", "x", "y")

	const writers, perWriter = 8, 2000
	var wg, scraperWG sync.WaitGroup
	stop := make(chan struct{})
	scraperWG.Add(1)
	go func() { // continuous scraper
		defer scraperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if s := reg.Render(); !strings.Contains(s, "h_seconds_count") {
					t.Error("render lost the histogram mid-flight")
					return
				}
			}
		}
	}()
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				c.Inc()
				g.Add(0.5)
				h.Observe(float64(j%100) * 1e-4)
				if j%2 == 0 {
					grp.Inc("x")
				} else {
					grp.Inc("y")
				}
			}
		}(i)
	}
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) { // racing lazy registration of the same series
			defer wg.Done()
			reg.Counter("late_total", "late", nil).Inc()
		}(i)
	}
	wg.Wait()
	close(stop)
	scraperWG.Wait()

	if got := c.Get(); got != writers*perWriter {
		t.Errorf("counter = %d, want %d", got, writers*perWriter)
	}
	if got := h.Count(); got != writers*perWriter {
		t.Errorf("histogram count = %d, want %d", got, writers*perWriter)
	}
	if got := g.Get(); got != writers*perWriter/2 {
		t.Errorf("gauge = %v, want %v", got, writers*perWriter/2)
	}
	if got := grp.Get("x") + grp.Get("y"); got != writers*perWriter {
		t.Errorf("group total = %d, want %d", got, writers*perWriter)
	}
	if got := reg.Counter("late_total", "late", nil).Get(); got != writers {
		t.Errorf("racing registration lost increments: %d, want %d", got, writers)
	}
}
