package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV emits the trace as "second,bytes" rows with a header line, the
// format cmd/tracegen produces.
func WriteCSV(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("second,bytes\n"); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for i := 0; i < t.Seconds(); i++ {
		if _, err := fmt.Fprintf(bw, "%d,%s\n", i, strconv.FormatFloat(t.Rate(i), 'f', -1, 64)); err != nil {
			return fmt.Errorf("trace: write row %d: %w", i, err)
		}
	}
	return bw.Flush()
}
