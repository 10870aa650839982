package experiments

import (
	"fmt"
	"io"

	"repro/internal/stats"
)

// ids is the presentation order of the experiment suite: the paper's tables
// and figures first, then the design-choice ablations.
var ids = []string{"table1", "fig3", "fig4", "table2", "overhead",
	"contraction", "quorum", "gar", "async", "noniid", "matrix", "bandwidth"}

// IDs returns the experiment identifiers in presentation order.
func IDs() []string {
	out := make([]string, len(ids))
	copy(out, ids)
	return out
}

// Run executes one experiment at the given scale and writes its formatted
// tables to out. Unknown ids return an error listing the valid ones.
func Run(id string, s Scale, out io.Writer) error {
	switch id {
	case "table1":
		fmt.Fprint(out, Table1())
	case "fig3":
		r, err := Fig3(s)
		if err != nil {
			return err
		}
		fmt.Fprint(out, r.Format(s))
	case "fig4":
		r, err := Fig4(s)
		if err != nil {
			return err
		}
		fmt.Fprint(out, r.Format())
	case "table2":
		recs, err := Table2(s)
		if err != nil {
			return err
		}
		fmt.Fprint(out, stats.FormatAlignmentTable(recs))
	case "overhead":
		r, err := Overhead(s)
		if err != nil {
			return err
		}
		fmt.Fprint(out, r.Format())
	case "contraction":
		r, err := Contraction(s)
		if err != nil {
			return err
		}
		fmt.Fprint(out, r.Format())
	case "quorum":
		rows, err := QuorumSweep(s)
		if err != nil {
			return err
		}
		fmt.Fprint(out, FormatQuorumSweep(rows))
	case "gar":
		rows, err := GARAblation(s)
		if err != nil {
			return err
		}
		fmt.Fprint(out, FormatGARAblation(rows))
	case "async":
		rows, err := AsyncSweep(s)
		if err != nil {
			return err
		}
		fmt.Fprint(out, FormatAsyncSweep(rows))
	case "noniid":
		rows, err := NonIID(s)
		if err != nil {
			return err
		}
		fmt.Fprint(out, FormatNonIID(rows))
	case "matrix":
		r, err := Matrix(s, DefaultMatrixSpec())
		if err != nil {
			return err
		}
		fmt.Fprint(out, r.Format())
	case "bandwidth":
		r, err := Bandwidth(s)
		if err != nil {
			return err
		}
		fmt.Fprint(out, r.Format())
	default:
		return fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return nil
}
