// Command wfit-advisor is an interactive semi-automatic index tuning
// session: the DBA role the paper describes, at a terminal. SQL statements
// typed (or piped) into the advisor are analyzed online by WFIT; the DBA
// can inspect the current recommendation at any time, cast explicit
// positive/negative votes on indices, and "materialize" the
// recommendation (implicit feedback).
//
// Commands (anything else is parsed as SQL):
//
//	\rec               show the current recommendation
//	\vote +t(c1,c2) …  cast votes; + for positive, - for negative
//	\accept            materialize the current recommendation (implicit +votes)
//	\status            tuner statistics (universe, partition, overhead)
//	\save FILE         snapshot the full tuner state to FILE
//	\load FILE         restore the tuner state from FILE
//	\help              this text
//	\quit              exit
//
// \save and \load use the same versioned binary codec as wfit-serve's
// snapshots, so an interactive session can be parked overnight (or handed
// to a colleague) and resumed exactly where it left off.
//
// With piped (non-interactive) input, any statement or command error makes
// the advisor exit non-zero after processing the stream.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/sqlmini"
	"repro/internal/state"
	"repro/internal/whatif"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	stateCnt := flag.Int("statecnt", 500, "stateCnt knob (bound on tracked configurations)")
	idxCnt := flag.Int("idxcnt", 40, "idxCnt knob (bound on monitored candidates)")
	load := flag.String("load", "", "restore tuner state from this snapshot before reading input")
	flag.Parse()

	cat, _ := datagen.Build()
	reg := index.NewRegistry()
	model := cost.NewModel(cat, reg, cost.DefaultParams())
	opt := whatif.New(model)
	parser := sqlmini.NewParser(cat)

	options := core.DefaultOptions()
	options.StateCnt = *stateCnt
	options.IdxCnt = *idxCnt
	tuner := core.NewWFIT(opt, options)

	fmt.Println("wfit-advisor: semi-automatic index tuning (\\help for commands)")
	session := &session{
		tuner: tuner, parser: parser, reg: reg, model: model,
		materialized: index.EmptySet,
		interactive:  stdinIsTerminal(),
	}
	if *load != "" {
		if err := session.load(*load); err != nil {
			fmt.Fprintf(os.Stderr, "wfit-advisor: %v\n", err)
			return 1
		}
		fmt.Printf("restored %d statements of tuner state from %s\n", session.statements, *load)
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("wfit> ")
		if !sc.Scan() {
			fmt.Println()
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if session.command(line) {
				return session.exitCode()
			}
			continue
		}
		session.analyze(line)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "wfit-advisor: reading input: %v\n", err)
		return 1
	}
	return session.exitCode()
}

// session holds the interactive state.
type session struct {
	tuner        *core.WFIT
	parser       *sqlmini.Parser
	reg          *index.Registry
	model        *cost.Model
	materialized index.Set
	statements   int
	errors       int
	interactive  bool
}

// stdinIsTerminal reports whether stdin is a character device (a human at
// a prompt) rather than a pipe or file.
func stdinIsTerminal() bool {
	info, err := os.Stdin.Stat()
	return err == nil && info.Mode()&os.ModeCharDevice != 0
}

// exitCode reports accumulated input failures: typos at an interactive
// prompt were already reported inline and are forgiven, but a piped
// workload with failing statements must not exit 0 as if it had been
// fully analyzed.
func (s *session) exitCode() int {
	if s.errors > 0 && !s.interactive {
		fmt.Fprintf(os.Stderr, "wfit-advisor: %d input line(s) failed\n", s.errors)
		return 1
	}
	return 0
}

// save snapshots the full tuner state (registry, work functions,
// statistics, materialized set) with the service's snapshot codec.
func (s *session) save(path string) error {
	snap := &state.Snapshot{
		Defs:  state.CaptureRegistry(s.reg),
		Tuner: s.tuner.ExportState(),
		Session: state.SessionState{
			Name:       "wfit-advisor",
			Statements: s.statements,
		},
	}
	return state.WriteFile(path, snap)
}

// load replaces the session's tuner world with a snapshot's: restored
// registry, fresh model and what-if optimizer over it, restored tuner.
func (s *session) load(path string) error {
	snap, err := state.ReadFile(path)
	if err != nil {
		return err
	}
	reg, err := index.RestoreRegistry(snap.Defs)
	if err != nil {
		return err
	}
	model := cost.NewModel(s.model.Catalog(), reg, cost.DefaultParams())
	ts, ok := snap.Tuner.(*core.TunerState)
	if !ok {
		return fmt.Errorf("snapshot holds a %q engine; the advisor drives wfit only", snap.Tuner.TunerKind())
	}
	tuner, err := core.RestoreWFIT(whatif.New(model), ts)
	if err != nil {
		return err
	}
	s.tuner, s.reg, s.model = tuner, reg, model
	s.materialized = ts.Materialized
	s.statements = snap.Session.Statements
	return nil
}

// analyze feeds one SQL statement to the tuner.
func (s *session) analyze(sql string) {
	st, err := s.parser.Parse(strings.TrimSuffix(sql, ";"))
	if err != nil {
		fmt.Println("error:", err)
		s.errors++
		return
	}
	s.statements++
	st.ID = s.statements
	s.tuner.AnalyzeQuery(st)
	rec := s.tuner.Recommend()
	fmt.Printf("analyzed %s; recommendation: %s\n", st.Kind, rec.Format(s.reg))
	if diff := rec.Minus(s.materialized); !diff.Empty() {
		fmt.Printf("  would create: %s\n", diff.Format(s.reg))
	}
	if diff := s.materialized.Minus(rec); !diff.Empty() {
		fmt.Printf("  would drop:   %s\n", diff.Format(s.reg))
	}
}

// command dispatches a backslash command; returns true to exit.
func (s *session) command(line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\quit", "\\q", "\\exit":
		return true
	case "\\help", "\\h":
		fmt.Println("  \\rec                 show current recommendation")
		fmt.Println("  \\vote +tbl(c1,c2) …  cast explicit votes (+ positive, - negative)")
		fmt.Println("  \\accept              materialize the recommendation (implicit +votes)")
		fmt.Println("  \\status              tuner statistics")
		fmt.Println("  \\save FILE           snapshot the tuner state to FILE")
		fmt.Println("  \\load FILE           restore the tuner state from FILE")
		fmt.Println("  \\quit                exit")
	case "\\save":
		if len(fields) != 2 {
			fmt.Println("error: usage: \\save FILE")
			s.errors++
			break
		}
		if err := s.save(fields[1]); err != nil {
			fmt.Println("error:", err)
			s.errors++
			break
		}
		fmt.Printf("saved %d statements of tuner state to %s\n", s.statements, fields[1])
	case "\\load":
		if len(fields) != 2 {
			fmt.Println("error: usage: \\load FILE")
			s.errors++
			break
		}
		if err := s.load(fields[1]); err != nil {
			fmt.Println("error:", err)
			s.errors++
			break
		}
		fmt.Printf("restored %d statements of tuner state from %s\n", s.statements, fields[1])
	case "\\rec":
		fmt.Println("recommendation:", s.tuner.Recommend().Format(s.reg))
	case "\\status":
		fmt.Printf("statements analyzed: %d\n", s.tuner.StatementsSeen())
		fmt.Printf("candidates mined:    %d\n", s.tuner.UniverseSize())
		fmt.Printf("partition changes:   %d\n", s.tuner.Repartitions())
		p := s.tuner.Partition()
		fmt.Printf("stable partition:    %d parts, %d states, largest part %d\n",
			len(p), p.States(), p.MaxPartSize())
		fmt.Printf("materialized:        %s\n", s.materialized.Format(s.reg))
	case "\\accept":
		rec := s.tuner.Recommend()
		created := rec.Minus(s.materialized)
		dropped := s.materialized.Minus(rec)
		s.materialized = rec
		s.tuner.SetMaterialized(rec)
		// Implicit feedback: creations are positive votes, drops are
		// negative votes (§3.1).
		s.tuner.Feedback(created, dropped)
		fmt.Printf("materialized %d indices (%d created, %d dropped)\n",
			rec.Len(), created.Len(), dropped.Len())
	case "\\vote":
		var plus, minus []index.ID
		ok := true
		for _, spec := range fields[1:] {
			if len(spec) < 2 || (spec[0] != '+' && spec[0] != '-') {
				fmt.Printf("error: vote %q must start with + or -\n", spec)
				ok = false
				s.errors++
				break
			}
			id, err := s.parseIndexSpec(spec[1:])
			if err != nil {
				fmt.Println("error:", err)
				ok = false
				s.errors++
				break
			}
			if spec[0] == '+' {
				plus = append(plus, id)
			} else {
				minus = append(minus, id)
			}
		}
		if ok && (len(plus) > 0 || len(minus) > 0) {
			s.tuner.Feedback(index.NewSet(plus...), index.NewSet(minus...))
			fmt.Println("recommendation:", s.tuner.Recommend().Format(s.reg))
		}
	default:
		fmt.Printf("unknown command %s (\\help for help)\n", fields[0])
		s.errors++
	}
	return false
}

// parseIndexSpec parses "schema.table(col1,col2)" into an interned index,
// checked by the rule the service applies to votes (server.ValidateSpec).
func (s *session) parseIndexSpec(spec string) (index.ID, error) {
	open := strings.IndexByte(spec, '(')
	if open < 0 || !strings.HasSuffix(spec, ")") {
		return 0, fmt.Errorf("index spec %q must look like table(col1,col2)", spec)
	}
	is := state.IndexSpec{Table: spec[:open], Columns: strings.Split(spec[open+1:len(spec)-1], ",")}
	for i := range is.Columns {
		is.Columns[i] = strings.TrimSpace(is.Columns[i])
	}
	cat := s.model.Catalog()
	if err := server.ValidateSpec(cat, is); err != nil {
		return 0, err
	}
	return s.reg.Intern(cost.BuildIndexProto(cat, s.model.Params(), is.Table, is.Columns)), nil
}
