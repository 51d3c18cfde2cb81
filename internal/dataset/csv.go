package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// ScanCSV streams numeric CSV data from r one record at a time and is the
// only place the numeric CSV rules live: when header is true the first
// record is skipped, every data row must have the width of the first one,
// every value field must parse as a finite float64 (NaN/Inf spellings and
// overflow are rejected), and input with no data rows is an error. When
// labeled is true the last field of each row is an integer class label
// instead of a value, so a row needs at least one value and the label.
//
// fn is called once per data row with the row's values and its label (0 when
// unlabeled). vals is reused across calls: fn must copy what it keeps. A
// non-nil error from fn stops the scan and is returned as is. ScanCSV returns
// the number of data rows and of values per row.
func ScanCSV(r io.Reader, header, labeled bool, fn func(vals []float64, label int) error) (rows, d int, err error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // width is checked against the first data row
	cr.ReuseRecord = true
	width := 0
	var vals []float64
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, fmt.Errorf("dataset: csv parse: %w", err)
		}
		if header {
			header = false
			continue
		}
		if rows == 0 {
			width = len(rec)
			d = width
			if labeled {
				d--
			}
			if d < 1 {
				return 0, 0, fmt.Errorf("dataset: row %d too short for label column", rows)
			}
			vals = make([]float64, d)
		} else if len(rec) != width {
			return 0, 0, fmt.Errorf("dataset: row %d has %d values, want %d", rows, len(rec), width)
		}
		for j := range vals {
			v, err := strconv.ParseFloat(rec[j], 64)
			if err != nil {
				return 0, 0, fmt.Errorf("dataset: row %d col %d: %w", rows, j, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, 0, fmt.Errorf("dataset: non-finite value at (%d,%d)", rows, j)
			}
			vals[j] = v
		}
		label := 0
		if labeled {
			if label, err = strconv.Atoi(rec[d]); err != nil {
				return 0, 0, fmt.Errorf("dataset: row %d label: %w", rows, err)
			}
		}
		if err := fn(vals, label); err != nil {
			return 0, 0, err
		}
		rows++
	}
	if rows == 0 {
		return 0, 0, errors.New("dataset: csv has no data rows")
	}
	return rows, d, nil
}

// ReadCSV parses numeric CSV data into a Dataset under ScanCSV's rules,
// appending the rows straight into the dataset's flat backing slice.
func ReadCSV(r io.Reader, header bool) (*Dataset, error) {
	var data []float64
	n, d, err := ScanCSV(r, header, false, func(vals []float64, _ int) error {
		data = append(data, vals...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Dataset{n: n, d: d, data: data}, nil
}

// ReadLabeledCSV parses CSV data whose last column is an integer class label
// (−1 for outliers). It returns the feature dataset and the label column.
func ReadLabeledCSV(r io.Reader, header bool) (*Dataset, []int, error) {
	var data []float64
	var labels []int
	n, d, err := ScanCSV(r, header, true, func(vals []float64, label int) error {
		data = append(data, vals...)
		labels = append(labels, label)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return &Dataset{n: n, d: d, data: data}, labels, nil
}

// WriteCSV writes the dataset as CSV. If labels is non-nil it must have one
// entry per row and is appended as a final integer column.
func WriteCSV(w io.Writer, ds *Dataset, labels []int) error {
	if labels != nil && len(labels) != ds.N() {
		return fmt.Errorf("dataset: %d labels for %d rows", len(labels), ds.N())
	}
	cw := csv.NewWriter(w)
	width := ds.D()
	if labels != nil {
		width++
	}
	rec := make([]string, width)
	for i := 0; i < ds.N(); i++ {
		row := ds.Row(i)
		for j, v := range row {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if labels != nil {
			rec[ds.D()] = strconv.Itoa(labels[i])
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
