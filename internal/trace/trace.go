// Package trace records named numeric time series and writes them as CSV —
// the pipeline figures' export for plotting tools (`ecofl pipeline --csv`).
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// Series is a table of float64 rows under named columns.
type Series struct {
	Name string
	Cols []string
	Rows [][]float64
}

// New creates an empty series with the given columns.
func New(name string, cols ...string) *Series {
	return &Series{Name: name, Cols: cols}
}

// Add appends one row; the value count must match the column count.
func (s *Series) Add(vals ...float64) {
	if len(vals) != len(s.Cols) {
		panic(fmt.Sprintf("trace: %d values for %d columns in %s", len(vals), len(s.Cols), s.Name))
	}
	s.Rows = append(s.Rows, append([]float64(nil), vals...))
}

// Len returns the number of rows.
func (s *Series) Len() int { return len(s.Rows) }

// Col returns the values of the named column.
func (s *Series) Col(name string) ([]float64, error) {
	for i, c := range s.Cols {
		if c == name {
			out := make([]float64, len(s.Rows))
			for j, r := range s.Rows {
				out[j] = r[i]
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("trace: series %s has no column %q", s.Name, name)
}

// WriteCSV writes the series with a header row.
func (s *Series) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(s.Cols); err != nil {
		return err
	}
	rec := make([]string, len(s.Cols))
	for _, row := range s.Rows {
		for i, v := range row {
			rec[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteDir writes the series as <dir>/<name>.csv, creating dir if needed.
func WriteDir(dir string, series ...*Series) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range series {
		f, err := os.Create(filepath.Join(dir, s.Name+".csv"))
		if err != nil {
			return err
		}
		err = s.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
