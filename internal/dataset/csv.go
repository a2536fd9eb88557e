package dataset

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"rrq/internal/vec"
)

// CSVError is the typed error ReadCSV returns for a malformed dataset
// file. Row is the 1-based physical row of the offense (the header is row
// 1; 0 for whole-file problems such as an empty input), Field the 1-based
// field within the row (0 when the whole row is at fault).
type CSVError struct {
	Row   int
	Field int
	Msg   string
}

func (e *CSVError) Error() string {
	switch {
	case e.Row == 0:
		return fmt.Sprintf("dataset: %s", e.Msg)
	case e.Field == 0:
		return fmt.Sprintf("dataset: row %d: %s", e.Row, e.Msg)
	default:
		return fmt.Sprintf("dataset: row %d field %d: %s", e.Row, e.Field, e.Msg)
	}
}

func csvErrf(row, field int, format string, args ...any) *CSVError {
	return &CSVError{Row: row, Field: field, Msg: fmt.Sprintf(format, args...)}
}

// WriteCSV writes points as rows of decimal values with a header
// attr1..attrD.
func WriteCSV(w io.Writer, pts []vec.Vec) error {
	cw := csv.NewWriter(w)
	if len(pts) > 0 {
		hdr := make([]string, len(pts[0]))
		for j := range hdr {
			hdr[j] = fmt.Sprintf("attr%d", j+1)
		}
		if err := cw.Write(hdr); err != nil {
			return err
		}
	}
	row := make([]string, 0, 8)
	for _, p := range pts {
		row = row[:0]
		for _, x := range p {
			row = append(row, strconv.FormatFloat(x, 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads the raw rows of a file written by WriteCSV (or any numeric
// CSV with a one-line header); rrq.NewNormalizedDataset takes them as they
// are. The loader is strict so malformed files fail loudly at
// the boundary instead of poisoning the geometry kernels downstream: every
// data row must match the header's width (ragged rows are rejected with
// their physical row number), every field must parse to a finite float
// (NaN/Inf are rejected), an empty file or a header with no data rows is
// an error, and blank lines are tolerated only as trailing padding — a
// blank line with data after it is a hole in the data and is rejected.
// All failures are typed *CSVError values carrying the 1-based row (and
// field, where one is at fault).
//
// The format is plain numeric CSV, so rows are scanned line by line rather
// than through encoding/csv — which silently swallows blank lines and
// would mis-number every row after one.
func ReadCSV(r io.Reader) ([][]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)

	row := 0 // physical 1-based row of the line just read
	d := 0   // header width
	blanks := 0
	var pts [][]float64
	for sc.Scan() {
		row++
		line := strings.TrimSuffix(sc.Text(), "\r")
		if strings.TrimSpace(line) == "" {
			if row == 1 {
				return nil, csvErrf(1, 0, "blank header row")
			}
			// Tolerated only as trailing padding: a later data row makes
			// this an interior blank, which is a hole in the data.
			blanks++
			continue
		}
		fields := strings.Split(line, ",")
		if row == 1 {
			d = len(fields)
			continue // header: names only, nothing to parse
		}
		if blanks > 0 {
			return nil, csvErrf(row, 0, "data row after %d blank line(s); blank lines are only allowed at the end of the file", blanks)
		}
		if len(fields) != d {
			return nil, csvErrf(row, 0, "ragged row: %d fields, want %d (header width)", len(fields), d)
		}
		p := make([]float64, d)
		for j, s := range fields {
			x, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return nil, csvErrf(row, j+1, "not a number: %q", strings.TrimSpace(s))
			}
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, csvErrf(row, j+1, "non-finite value %v", x)
			}
			p[j] = x
		}
		pts = append(pts, p)
	}
	if err := sc.Err(); err != nil {
		return nil, csvErrf(row+1, 0, "%v", err)
	}
	if row == 0 {
		return nil, csvErrf(0, 0, "empty file (want a header row and at least one data row)")
	}
	if len(pts) == 0 {
		return nil, csvErrf(0, 0, "no data rows (header only)")
	}
	return pts, nil
}
