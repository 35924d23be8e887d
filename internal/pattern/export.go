package pattern

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Export writers for the Table II statistics: CSV for plotting pipelines
// and Markdown for reports (EXPERIMENTS.md is generated from these
// numbers).

// WriteTableIICSV emits one row per application and side:
//
//	app,side,col1,col2,col3,col4
//	cg,production,3.72,26.60,49.54,95.43
//	cg,consumption,3.72,26.66,49.60,
//
// NaN (unchunkable) columns are left empty.
func WriteTableIICSV(w io.Writer, rows []*Analysis) error {
	if _, err := fmt.Fprintln(w, "app,side,first_or_nothing,quarter,half,whole"); err != nil {
		return err
	}
	num := func(v float64) string {
		if math.IsNaN(v) {
			return ""
		}
		return fmt.Sprintf("%.2f", v)
	}
	for _, an := range rows {
		p := an.AppProduction
		if _, err := fmt.Fprintf(w, "%s,production,%s,%s,%s,%s\n",
			an.App, num(p.FirstElem), num(p.Quarter), num(p.Half), num(p.Whole)); err != nil {
			return err
		}
		c := an.AppConsumption
		if _, err := fmt.Fprintf(w, "%s,consumption,%s,%s,%s,\n",
			an.App, num(c.Nothing), num(c.Quarter), num(c.Half)); err != nil {
			return err
		}
	}
	return nil
}

// WriteTableIIMarkdown emits the two Table II panels as Markdown tables.
func WriteTableIIMarkdown(w io.Writer, rows []*Analysis) error {
	if _, err := fmt.Fprintln(w, "### Table II(a) — production\n\n| app | 1st element | quarter | half | whole |\n|---|---|---|---|---|\n| ideal | 0% | 25% | 50% | 100% |"); err != nil {
		return err
	}
	for _, an := range rows {
		p := an.AppProduction
		if _, err := fmt.Fprintf(w, "| %s | %s | %s | %s | %s |\n",
			an.App, pct(p.FirstElem), pct(p.Quarter), pct(p.Half), pct(p.Whole)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "\n### Table II(b) — consumption\n\n| app | nothing | quarter | half |\n|---|---|---|---|\n| ideal | 0% | 25% | 50% |"); err != nil {
		return err
	}
	for _, an := range rows {
		c := an.AppConsumption
		if _, err := fmt.Fprintf(w, "| %s | %s | %s | %s |\n",
			an.App, pct(c.Nothing), pct(c.Quarter), pct(c.Half)); err != nil {
			return err
		}
	}
	return nil
}

// BufferRow is one buffer's production or consumption statistics in a
// flat, sortable form.
type BufferRow struct {
	Buffer string
	Side   Side
	// Cols holds FirstElem/Quarter/Half/Whole for production and
	// Nothing/Quarter/Half/NaN for consumption.
	Cols      [4]float64
	Intervals int
	Chunkable bool
}

// PerBufferRows flattens an analysis into per-buffer rows, for
// programmatic consumers of the per-buffer breakdown. It returns
// production then consumption rows, each sorted by buffer name.
func (an *Analysis) PerBufferRows() []BufferRow {
	var rows []BufferRow
	names := make([]string, 0, len(an.Production))
	for n := range an.Production {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := an.Production[n]
		rows = append(rows, BufferRow{
			Buffer: n, Side: Production,
			Cols:      [4]float64{p.FirstElem, p.Quarter, p.Half, p.Whole},
			Intervals: p.Intervals, Chunkable: p.Chunkable,
		})
	}
	names = names[:0]
	for n := range an.Consumption {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := an.Consumption[n]
		rows = append(rows, BufferRow{
			Buffer: n, Side: Consumption,
			Cols:      [4]float64{c.Nothing, c.Quarter, c.Half, math.NaN()},
			Intervals: c.Intervals, Chunkable: c.Chunkable,
		})
	}
	return rows
}
