// Command datagen generates synthetic projected-clustering datasets
// following the data model of the SSPC paper and writes them as CSV (one
// object per row, class label in the last column, −1 for outliers), as a
// .sspcb binary dataset, or both. It also converts existing CSV data to the
// binary format.
//
// Usage:
//
//	datagen -n 1000 -d 100 -k 5 -l 10 -o data.csv
//	datagen -n 1000 -d 100 -k 5 -l 10 -outliers 0.1 -dims dims.txt -o data.csv
//	datagen -n 1000 -d 100 -k 5 -l 10 -nolabel -o data.csv
//	datagen -n 1000 -d 100 -k 5 -l 10 -obin data.sspcb -shardrows 4096
//	datagen -shardrows 4096 -convert big.sspcb part-00.csv part-01.csv part-02.csv
//
// With -dims, the true relevant dimensions of each class are written to a
// side file ("class <c>: <j1> <j2> ...").
//
// -obin writes the generated matrix in the binary dataset format (features
// only — the format carries no label column; pair it with -o for a labeled
// CSV of the same data). -convert skips generation entirely: the positional
// arguments are the in-order segments of one logical CSV (e.g. from
// split(1)), parsed at most GOMAXPROCS segments at a time and streamed into
// one binary file whose bytes are independent of the split. -header skips a
// header record on the first segment. See docs/DATASETS.md for the format
// and the conversion memory arithmetic.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/dataset"
	"repro/internal/dataset/binfmt"
	"repro/internal/synth"
)

func main() {
	var (
		n         = flag.Int("n", 1000, "number of objects")
		d         = flag.Int("d", 100, "number of dimensions")
		k         = flag.Int("k", 5, "number of hidden classes")
		l         = flag.Int("l", 10, "average relevant dimensions per class")
		spread    = flag.Float64("lspread", 0, "std dev of per-class dimension counts")
		outliers  = flag.Float64("outliers", 0, "outlier fraction [0,1)")
		seed      = flag.Int64("seed", 1, "random seed")
		out       = flag.String("o", "", "output CSV path (default stdout when no -obin/-convert)")
		noLabel   = flag.Bool("nolabel", false, "omit the class-label column from the CSV output")
		dimsOut   = flag.String("dims", "", "optional path for the true relevant dimensions")
		obin      = flag.String("obin", "", "also write the generated matrix as a binary dataset (.sspcb) to this path")
		convert   = flag.String("convert", "", "convert mode: stream the positional CSV segment files into this binary dataset path (no generation)")
		shardRows = flag.Int("shardrows", 4096, "rows per shard in binary output (-obin/-convert)")
		header    = flag.Bool("header", false, "-convert: the first segment starts with a header record")
	)
	flag.Parse()

	if *convert != "" {
		segments := flag.Args()
		if len(segments) == 0 {
			fail(fmt.Errorf("-convert %s: no CSV segment files given", *convert))
		}
		info, err := binfmt.ConvertCSV(*convert, segments, binfmt.ConvertOptions{
			ShardRows: *shardRows,
			Header:    *header,
		})
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "datagen: wrote %s: %dx%d, %d shards of %d rows, payload crc %016x\n",
			*convert, info.N, info.D, info.NumShards, info.ShardRows, info.PayloadChecksum)
		return
	}

	gt, err := synth.Generate(synth.Config{
		N: *n, D: *d, K: *k, AvgDims: *l, DimStdDev: *spread,
		OutlierFrac: *outliers, Seed: *seed,
	})
	if err != nil {
		fail(err)
	}

	if *obin != "" {
		info, err := binfmt.WriteBinaryFile(*obin, gt.Data, *shardRows)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "datagen: wrote %s: %dx%d, %d shards of %d rows, payload crc %016x\n",
			*obin, info.N, info.D, info.NumShards, info.ShardRows, info.PayloadChecksum)
	}

	if *out != "" || *obin == "" {
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			w = f
		}
		labels := gt.Labels
		if *noLabel {
			labels = nil
		}
		bw := bufio.NewWriter(w)
		if err := dataset.WriteCSV(bw, gt.Data, labels); err != nil {
			fail(err)
		}
		if err := bw.Flush(); err != nil {
			fail(err)
		}
	}

	if *dimsOut != "" {
		f, err := os.Create(*dimsOut)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		for c, dims := range gt.Dims {
			fmt.Fprintf(f, "class %d:", c)
			for _, j := range dims {
				fmt.Fprintf(f, " %d", j)
			}
			fmt.Fprintln(f)
		}
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
	os.Exit(1)
}
