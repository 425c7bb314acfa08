package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"faircc/internal/stats"
)

// ParseCDF reads a flow-size distribution in the HPCC-artifact text
// format: one "<size_bytes> <cumulative_percent>" pair per line, sizes in
// [0, 2^63) bytes, percents in [0,100] ending at 100. Blank lines and lines
// starting with '#' are ignored. This lets users who have the original
// WebSearch / FbHdp / AliStorage trace files drop them in instead of the
// synthetic CDFs.
func ParseCDF(r io.Reader) (*stats.CDF, error) {
	var pts []stats.CDFPoint
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("workload: line %d: want \"size percent\", got %q", lineNo, line)
		}
		var v [2]float64
		for i, name := range []string{"size", "percent"} {
			x, err := strconv.ParseFloat(fields[i], 64)
			// ParseFloat takes "nan" and "inf"; NewCDF refuses them as a
			// percent, and float64(MaxInt64) is 2^63.
			if err == nil && i == 0 && !(x >= 0 && x < math.MaxInt64) {
				err = fmt.Errorf("%q is not a byte count", fields[i])
			}
			if err != nil {
				return nil, fmt.Errorf("workload: line %d: bad %s: %w", lineNo, name, err)
			}
			v[i] = x
		}
		pts = append(pts, stats.CDFPoint{Value: v[0], Frac: v[1] / 100})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	cdf, err := stats.NewCDF(pts)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return cdf, nil
}

// LoadCDF reads a distribution file (see ParseCDF for the format).
func LoadCDF(path string) (*stats.CDF, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cdf, err := ParseCDF(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cdf, nil
}
