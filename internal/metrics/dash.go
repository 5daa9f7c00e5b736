package metrics

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"ecofl/internal/obs/journal"
)

// sampleKind is the journal kind of one history tick.
const sampleKind = "metric.sample"

// Sampler keeps the live dashboard's history as journal events: each Sample
// records one metric.sample event whose one attribute, "v", holds every
// value the registries' samples Digest into, comma-separated in column
// order, an empty field for a value not yielded that tick. A name's column is
// fixed the first time the sampler sees it, and the sampler keeps the names,
// so the ring holds values alone; a Registry never unregisters, so a column
// never changes meaning. Metrics registered late get a column at their first
// tick. The recorder's ring bounds the history, and its clock stamps it.
type Sampler struct {
	rec  *journal.Recorder
	regs []*Registry

	mu    sync.Mutex
	cols  map[string]int // history name -> column
	names []string       // column order
	vals  []float64      // this tick's values, NaN where none was yielded
	buf   []byte
}

// NewSampler returns a sampler recording the given registries into rec.
func NewSampler(rec *journal.Recorder, regs ...*Registry) *Sampler {
	return &Sampler{rec: rec, regs: regs, cols: make(map[string]int)}
}

// Sample records one tick of every attached registry.
func (sp *Sampler) Sample() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for i := range sp.vals {
		sp.vals[i] = math.NaN()
	}
	for _, r := range sp.regs {
		for _, s := range r.Snapshot() {
			labels := s.Name[len(s.Family):] // "" or {k="v",...}
			s.Digest(func(family string, v float64) {
				sp.buf = append(append(sp.buf[:0], family...), labels...)
				col, ok := sp.cols[string(sp.buf)]
				if !ok {
					name := string(sp.buf)
					col = len(sp.names)
					sp.cols[name] = col
					sp.names = append(sp.names, name)
					sp.vals = append(sp.vals, 0)
				}
				sp.vals[col] = v
			})
		}
	}
	sp.buf = sp.buf[:0]
	for i, v := range sp.vals {
		if i > 0 {
			sp.buf = append(sp.buf, ',')
		}
		if !math.IsNaN(v) {
			sp.buf = strconv.AppendFloat(sp.buf, v, 'g', -1, 64)
		}
	}
	sp.rec.Record(sampleKind, journal.None, journal.None, "v", string(sp.buf))
}

// seriesJSON is the /api/series wire schema for one metric history.
type seriesJSON struct {
	Name   string       `json:"name"`
	Points [][2]float64 `json:"points"`
}

// WriteJSON writes the history as {"series":[{name, points:[[t,v],...]}]},
// one series per column, oldest point first.
func (sp *Sampler) WriteJSON(w io.Writer) error {
	sp.mu.Lock()
	names, evs := sp.names, sp.rec.Events()
	sp.mu.Unlock()
	out := struct {
		Series []seriesJSON `json:"series"`
	}{Series: make([]seriesJSON, len(names))}
	for i, name := range names {
		out.Series[i] = seriesJSON{Name: name, Points: [][2]float64{}}
	}
	for _, e := range evs {
		if e.Kind != sampleKind {
			continue
		}
		for col, field := range strings.Split(e.Attrs["v"], ",") {
			if v, err := strconv.ParseFloat(field, 64); err == nil {
				out.Series[col].Points = append(out.Series[col].Points, [2]float64{e.TS, v})
			}
		}
	}
	return json.NewEncoder(w).Encode(out)
}

// SeriesHandler serves the sampler's recorded history as JSON — the /api/series
// endpoint behind the live dashboard.
func (sp *Sampler) SeriesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = sp.WriteJSON(w)
	})
}

// DashHandler serves the stdlib-only live dashboard page: one sparkline card
// per recorded series (inline SVG, no external assets), polling /api/series.
// Mount it at /dash next to the sampler's SeriesHandler at /api/series.
func DashHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write([]byte(dashPage))
	})
}

// dashPage is the whole dashboard: fetch series JSON, render sparkline cards
// with a hover tooltip, flag straggler gauges with a labelled badge, and offer
// a latest-values table view. Colors are defined once per role so light and
// dark mode swap in one place.
const dashPage = `<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<meta name="viewport" content="width=device-width,initial-scale=1">
<title>Eco-FL fleet dashboard</title>
<style>
:root {
  color-scheme: light;
  --page: #f9f9f7; --surface: #fcfcfb;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7; --border: rgba(11,11,11,0.10);
  --series: #2a78d6; --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) { :root {
  color-scheme: dark;
  --page: #0d0d0d; --surface: #1a1a19;
  --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
  --grid: #2c2c2a; --baseline: #383835; --border: rgba(255,255,255,0.10);
  --series: #3987e5; --critical: #d03b3b;
} }
* { box-sizing: border-box; }
body { margin: 0; padding: 16px 20px; background: var(--page); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif; }
header { display: flex; gap: 12px; align-items: baseline; flex-wrap: wrap; margin-bottom: 14px; }
h1 { font-size: 17px; margin: 0; font-weight: 650; }
#status { color: var(--muted); font-size: 12px; }
#filter { margin-left: auto; padding: 5px 9px; border: 1px solid var(--border);
  border-radius: 7px; background: var(--surface); color: var(--ink); min-width: 220px; }
#grid { display: grid; grid-template-columns: repeat(auto-fill, minmax(270px, 1fr)); gap: 10px; }
.card { background: var(--surface); border: 1px solid var(--border); border-radius: 9px;
  padding: 10px 12px 8px; }
.card.straggle { border-color: var(--critical); }
.name { color: var(--ink-2); font-size: 11.5px; overflow-wrap: anywhere; }
.row { display: flex; align-items: baseline; gap: 8px; margin: 2px 0 4px; }
.val { font-size: 19px; font-weight: 650; }
.badge { color: var(--critical); font-size: 10.5px; font-weight: 700; letter-spacing: 0.04em; }
.badge::before { content: "\25B2 "; }
svg { display: block; width: 100%; height: 52px; }
.spark { fill: none; stroke: var(--series); stroke-width: 2; stroke-linejoin: round; stroke-linecap: round; }
.straggle .spark { stroke: var(--critical); }
.base { stroke: var(--grid); stroke-width: 1; }
.dot { fill: var(--series); }
.straggle .dot { fill: var(--critical); }
#tip { position: fixed; pointer-events: none; display: none; background: var(--surface);
  border: 1px solid var(--border); border-radius: 6px; padding: 3px 7px; font-size: 11.5px;
  color: var(--ink); box-shadow: 0 2px 8px rgba(0,0,0,0.15); z-index: 2;
  font-variant-numeric: tabular-nums; }
details { margin-top: 16px; }
summary { color: var(--ink-2); cursor: pointer; font-size: 12.5px; }
table { border-collapse: collapse; margin-top: 8px; font-size: 12.5px; }
td, th { text-align: left; padding: 3px 14px 3px 0; border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums; }
th { color: var(--muted); font-weight: 600; }
</style></head><body>
<header>
  <h1>Eco-FL fleet dashboard</h1><span id="status">connecting…</span>
  <input id="filter" type="search" placeholder="filter series…" aria-label="filter series">
</header>
<div id="grid"></div>
<div id="tip" role="status"></div>
<details><summary>Latest values (table view)</summary>
  <table><thead><tr><th>series</th><th>t</th><th>value</th></tr></thead>
  <tbody id="tbody"></tbody></table>
</details>
<script>
"use strict";
// Key fleet signals sort first; everything else follows alphabetically.
const PIN = ["ecofl_straggler", "ecofl_server_eval_accuracy", "ecofl_fl_eval_accuracy",
  "ecofl_flnet_sessions_active", "ecofl_flnet_lease_expired_total", "ecofl_fl_readmissions_total",
  "ecofl_node_push_interval_seconds", "ecofl_fl_round_virtual_seconds",
  "ecofl_flnet_server_request_seconds", "ecofl_fl_staleness", "ecofl_fl_group_size",
  "ecofl_runtime_goroutines", "ecofl_runtime_heap_bytes", "ecofl_runtime_gc_pause_p99_seconds"];
const rank = n => { const i = PIN.findIndex(p => n.startsWith(p)); return i < 0 ? PIN.length : i; };
const fmt = v => {
  if (!isFinite(v)) return String(v);
  const a = Math.abs(v);
  if (a !== 0 && (a >= 1e6 || a < 1e-3)) return v.toExponential(2);
  return String(+v.toPrecision(4));
};
const W = 260, H = 52, PAD = 4;
const tip = document.getElementById("tip");
const cards = new Map(); // name -> {card, path, dot, val, badge, pts}

function project(pts) {
  let tMin = Infinity, tMax = -Infinity, vMin = Infinity, vMax = -Infinity;
  for (const [t, v] of pts) {
    tMin = Math.min(tMin, t); tMax = Math.max(tMax, t);
    vMin = Math.min(vMin, v); vMax = Math.max(vMax, v);
  }
  const tS = tMax > tMin ? (W - 2 * PAD) / (tMax - tMin) : 0;
  const vS = vMax > vMin ? (H - 2 * PAD) / (vMax - vMin) : 0;
  return pts.map(([t, v]) => [PAD + (t - tMin) * tS, vS ? H - PAD - (v - vMin) * vS : H / 2]);
}

function makeCard(name) {
  const card = document.createElement("div");
  card.className = "card";
  card.innerHTML = '<div class="name"></div><div class="row"><span class="val"></span>' +
    '<span class="badge" hidden>STRAGGLER</span></div>' +
    '<svg viewBox="0 0 ' + W + " " + H + '" preserveAspectRatio="none" role="img">' +
    '<line class="base" x1="0" y1="' + (H - 1) + '" x2="' + W + '" y2="' + (H - 1) + '"></line>' +
    '<polyline class="spark" points=""></polyline><circle class="dot" r="2.5" opacity="0"></circle></svg>';
  card.querySelector(".name").textContent = name;
  const entry = {
    card, val: card.querySelector(".val"), badge: card.querySelector(".badge"),
    path: card.querySelector(".spark"), dot: card.querySelector(".dot"),
    svg: card.querySelector("svg"), pts: [],
  };
  entry.svg.addEventListener("mousemove", ev => hover(entry, ev));
  entry.svg.addEventListener("mouseleave", () => { tip.style.display = "none"; entry.dot.setAttribute("opacity", "0"); });
  cards.set(name, entry);
  return entry;
}

function hover(entry, ev) {
  if (!entry.pts.length) return;
  const box = entry.svg.getBoundingClientRect();
  const x = (ev.clientX - box.left) / box.width * W;
  let best = 0, bestD = Infinity;
  entry.proj.forEach(([px], i) => { const d = Math.abs(px - x); if (d < bestD) { bestD = d; best = i; } });
  const [t, v] = entry.pts[best], [px, py] = entry.proj[best];
  entry.dot.setAttribute("cx", px); entry.dot.setAttribute("cy", py); entry.dot.setAttribute("opacity", "1");
  tip.textContent = "t=" + fmt(t) + "s  " + fmt(v);
  tip.style.display = "block";
  tip.style.left = (ev.clientX + 12) + "px"; tip.style.top = (ev.clientY - 10) + "px";
}

function render(series) {
  const grid = document.getElementById("grid");
  const tbody = document.getElementById("tbody");
  const q = document.getElementById("filter").value.toLowerCase();
  series.sort((a, b) => rank(a.name) - rank(b.name) || (a.name < b.name ? -1 : 1));
  tbody.textContent = "";
  for (const s of series) {
    let entry = cards.get(s.name) || makeCard(s.name);
    entry.pts = s.points;
    entry.proj = project(s.points);
    entry.path.setAttribute("points", entry.proj.map(p => p[0].toFixed(1) + "," + p[1].toFixed(1)).join(" "));
    const last = s.points.length ? s.points[s.points.length - 1] : null;
    entry.val.textContent = last ? fmt(last[1]) : "–";
    const straggling = s.name.startsWith("ecofl_straggler") && last && last[1] > 0;
    entry.card.classList.toggle("straggle", straggling);
    entry.badge.hidden = !straggling;
    entry.card.hidden = q && !s.name.toLowerCase().includes(q);
    if (!entry.card.parentNode) grid.appendChild(entry.card);
    grid.appendChild(entry.card); // keep DOM order = sorted order
    if (last) {
      const tr = document.createElement("tr");
      for (const cell of [s.name, fmt(last[0]), fmt(last[1])]) {
        const td = document.createElement("td");
        td.textContent = cell;
        tr.appendChild(td);
      }
      tbody.appendChild(tr);
    }
  }
}

async function refresh() {
  const status = document.getElementById("status");
  try {
    const res = await fetch("api/series", { cache: "no-store" });
    const data = await res.json();
    render(data.series || []);
    status.textContent = (data.series || []).length + " series · updated " + new Date().toLocaleTimeString();
  } catch (err) {
    status.textContent = "fetch failed: " + err;
  }
}
document.getElementById("filter").addEventListener("input", refresh);
refresh();
setInterval(refresh, 2000);
</script></body></html>
`
