// Command dtshell executes SQL scripts against an embedded dyntables
// engine. Besides SQL statements (terminated by semicolons), it supports
// directives for driving virtual time and inspecting dynamic tables:
//
//	.advance 5m        advance the virtual clock and run the scheduler
//	.refresh name      manually refresh a dynamic table
//	.status name       print a dynamic table's state and history
//	.dvs name          check delayed view semantics for a dynamic table
//	.role name         switch the session role
//	.warehouses        print warehouse billing (SHOW WAREHOUSES, as \dw)
//	.checkpoint        force a snapshot checkpoint (durable engines)
//
// psql-style meta-commands back the new SHOW statements:
//
//	\dt                list dynamic tables (SHOW DYNAMIC TABLES)
//	\dw                list warehouses (SHOW WAREHOUSES)
//	\health            per-DT health classification and blame (SHOW HEALTH)
//	\alerts            list watchdog alerts and firing state (SHOW ALERTS)
//	\d name            describe an object: columns, plus refresh state for DTs
//	\timing [on|off]   toggle printing each statement's wall-clock time
//	                   along with rows served and rows affected
//
// EXPLAIN output (EXPLAIN SELECT ... / EXPLAIN CREATE DYNAMIC TABLE ...)
// is pretty-printed as an indented plan tree instead of a result table.
//
// Statements run on a session with a cancelable context: Ctrl-C aborts
// the running statement (the scan stops mid-stream) without killing the
// shell.
//
// With -data DIR the engine is durable: state is write-ahead-logged and
// checkpointed under DIR, survives exit, and is recovered on the next
// start.
//
// With -connect ADDR the shell drives a remote dtserve daemon through
// the HTTP cursor protocol instead of embedding an engine: the same SQL,
// directives and meta-commands work over the wire (-token supplies the
// bearer token for authenticated daemons), and Ctrl-C cancels the
// running remote statement — aborting the request propagates the
// cancellation into the server-side statement context.
//
// Usage: dtshell [-data dir | -connect addr [-token t]] [script.sql]
// (reads stdin when no file is given)
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"dyntables"
)

// shell abstracts the embedded-engine and remote-daemon modes behind the
// same scan loop.
type shell interface {
	execute(text string)
	directive(line string)
	metaCommand(line string)
	close()
}

func main() {
	dataDir := flag.String("data", "", "data directory for a durable engine (empty = in-memory)")
	connect := flag.String("connect", "", "address of a dtserve daemon (host:port); drives it remotely instead of embedding an engine")
	token := flag.String("token", "", "bearer token for -connect against an authenticated daemon")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}

	var sh shell
	if *connect != "" {
		if *dataDir != "" {
			log.Fatal("-connect and -data are mutually exclusive")
		}
		var err error
		sh, err = newRemoteShell(*connect, *token)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		sh = newLocalShell(*dataDir)
	}
	defer sh.close()

	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)

	var pending strings.Builder
	interactive := flag.NArg() == 0
	if interactive {
		fmt.Print("dyntables> ")
	}
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "--") {
			prompt(interactive, &pending)
			continue
		}
		if strings.HasPrefix(trimmed, ".") {
			sh.directive(trimmed)
			prompt(interactive, &pending)
			continue
		}
		if strings.HasPrefix(trimmed, `\`) {
			sh.metaCommand(trimmed)
			prompt(interactive, &pending)
			continue
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			sh.execute(pending.String())
			pending.Reset()
		}
		prompt(interactive, &pending)
	}
	if strings.TrimSpace(pending.String()) != "" {
		sh.execute(pending.String())
	}
	if err := scanner.Err(); err != nil {
		// Not log.Fatal: the deferred close must still flush the WAL.
		log.Println(err)
	}
}

// localShell embeds an engine in-process (the original dtshell mode).
type localShell struct {
	eng  *dyntables.Engine
	sess *dyntables.Session
}

func newLocalShell(dataDir string) *localShell {
	var eng *dyntables.Engine
	if dataDir != "" {
		var err error
		eng, err = dyntables.Open(dataDir)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("durable engine at %s (recovered to %s)\n", dataDir, eng.Now().Format(time.RFC3339))
	} else {
		eng = dyntables.New()
	}
	return &localShell{eng: eng, sess: eng.NewSession()}
}

func (l *localShell) execute(text string)     { execute(l.sess, text) }
func (l *localShell) directive(line string)   { directive(l.eng, l.sess, line) }
func (l *localShell) metaCommand(line string) { metaCommand(l.sess, line) }
func (l *localShell) close() {
	if err := l.eng.Close(); err != nil {
		log.Println("close:", err)
	}
}

func prompt(interactive bool, pending *strings.Builder) {
	if !interactive {
		return
	}
	if strings.TrimSpace(pending.String()) == "" {
		fmt.Print("dyntables> ")
	} else {
		fmt.Print("       ... ")
	}
}

// timing is the \timing toggle, shared by both shell modes: when on,
// each executed script prints its host wall-clock time after the
// results (for remote mode that includes the network round-trips).
var timing bool

// setTiming handles the \timing meta-command for both shells.
func setTiming(fields []string) {
	switch {
	case len(fields) < 2:
		timing = !timing
	case strings.EqualFold(fields[1], "on"):
		timing = true
	case strings.EqualFold(fields[1], "off"):
		timing = false
	default:
		fmt.Println(`usage: \timing [on|off]`)
		return
	}
	if timing {
		fmt.Println("Timing is on.")
	} else {
		fmt.Println("Timing is off.")
	}
}

// printTiming reports a statement's wall time plus the rows it served
// and affected when \timing is on.
func printTiming(start time.Time, served, affected int) {
	if timing {
		fmt.Printf("Time: %s (%d rows served, %d affected)\n",
			time.Since(start).Round(time.Microsecond), served, affected)
	}
}

// execute runs a script under a context canceled by Ctrl-C, so a
// long-running statement aborts instead of killing the shell.
func execute(sess *dyntables.Session, text string) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	results, err := sess.ExecScriptContext(ctx, text)
	var served, affected int
	defer func() { printTiming(start, served, affected) }()
	for _, res := range results {
		served += len(res.Rows)
		affected += res.RowsAffected
		switch {
		case res.Kind == "EXPLAIN":
			// EXPLAIN rows are plan-tree lines; print them raw so the
			// indentation survives.
			for _, row := range res.Rows {
				fmt.Println(row[0].String())
			}
		case len(res.Columns) > 0:
			printTable(res)
		case res.RowsAffected > 0:
			fmt.Printf("%s: %d rows\n", res.Kind, res.RowsAffected)
		case res.Message != "":
			fmt.Println(res.Message)
		default:
			fmt.Println(res.Kind, "ok")
		}
	}
	if err != nil {
		if ctx.Err() != nil {
			fmt.Println("canceled")
			return
		}
		fmt.Println("error:", err)
	}
}

func printTable(res *dyntables.Result) {
	fmt.Println(strings.Join(res.Columns, " | "))
	fmt.Println(strings.Repeat("-", len(strings.Join(res.Columns, " | "))))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}

// metaCommand handles psql-style \-commands backed by the SHOW
// statements and the INFORMATION_SCHEMA virtual tables. Like ordinary
// statements, they run under a Ctrl-C-cancelable context.
func metaCommand(sess *dyntables.Session, line string) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fields := strings.Fields(line)
	runShow := func(stmt string) {
		res, err := sess.ExecContext(ctx, stmt)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		printTable(res)
	}
	switch fields[0] {
	case `\dt`:
		runShow(`SHOW DYNAMIC TABLES`)
	case `\dw`:
		runShow(`SHOW WAREHOUSES`)
	case `\health`:
		runShow(`SHOW HEALTH`)
	case `\alerts`:
		runShow(`SHOW ALERTS`)
	case `\d`:
		if len(fields) < 2 {
			fmt.Println(`usage: \d <name>`)
			return
		}
		describeObject(ctx, sess, fields[1])
	case `\timing`:
		setTiming(fields)
	default:
		fmt.Println("unknown meta-command", fields[0], `(try \dt, \dw, \health, \alerts, \d <name>, \timing)`)
	}
}

// describeObject prints an object's columns and, for dynamic tables, its
// refresh state from INFORMATION_SCHEMA.DYNAMIC_TABLES.
func describeObject(ctx context.Context, sess *dyntables.Session, name string) {
	res, err := sess.ExecContext(ctx, fmt.Sprintf(`SELECT * FROM %s LIMIT 0`, name))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%s: %s\n", name, strings.Join(res.Columns, ", "))
	dtInfo, err := sess.ExecContext(ctx,
		`SELECT state, refresh_mode, declared_mode, mode_reason, target_lag, rows, data_ts, slo_attainment
		 FROM INFORMATION_SCHEMA.DYNAMIC_TABLES WHERE name = ?`, name)
	if err == nil && len(dtInfo.Rows) == 1 {
		row := dtInfo.Rows[0]
		fmt.Printf("dynamic table: state=%s mode=%s (declared %s) target_lag=%s rows=%s data_ts=%s slo=%s\n",
			row[0], row[1], row[2], row[4], row[5], row[6], row[7])
		if !row[3].IsNull() {
			fmt.Printf("mode reason: %s\n", row[3])
		}
	}
}

func directive(eng *dyntables.Engine, sess *dyntables.Session, line string) {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".advance":
		if len(fields) < 2 {
			fmt.Println("usage: .advance <duration>")
			return
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		eng.AdvanceTime(d)
		if err := eng.RunScheduler(); err != nil {
			fmt.Println("scheduler error:", err)
			return
		}
		fmt.Printf("advanced to %s\n", eng.Now().Format(time.RFC3339))
	case ".refresh":
		if len(fields) < 2 {
			fmt.Println("usage: .refresh <dynamic table>")
			return
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		err := sess.ManualRefreshContext(ctx, fields[1])
		stop()
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println("refreshed", fields[1])
	case ".status":
		if len(fields) < 2 {
			fmt.Println("usage: .status <dynamic table>")
			return
		}
		st, err := sess.Describe(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%s: state=%s mode=%s rows=%d lag=%s data_ts=%s errors=%d\n",
			st.Name, st.State, st.EffectiveMode, st.Rows,
			st.Lag.Truncate(time.Second), st.DataTimestamp.Format(time.RFC3339), st.ErrorCount)
		for _, rec := range st.History {
			status := "ok"
			if rec.Err != nil {
				status = rec.Err.Error()
			}
			fmt.Printf("  %-13s data_ts=%s +%d -%d  %s\n",
				rec.Action, rec.DataTS.Format("15:04:05"), rec.Inserted, rec.Deleted, status)
		}
	case ".dvs":
		if len(fields) < 2 {
			fmt.Println("usage: .dvs <dynamic table>")
			return
		}
		if err := eng.CheckDVS(fields[1]); err != nil {
			fmt.Println("DVS VIOLATION:", err)
			return
		}
		fmt.Println("DVS holds for", fields[1])
	case ".role":
		if len(fields) < 2 {
			fmt.Println("usage: .role <name>")
			return
		}
		sess.SetRole(fields[1])
		fmt.Println("role set to", fields[1])
	case ".warehouses":
		metaCommand(sess, `\dw`)
	case ".checkpoint":
		if err := eng.Checkpoint(); err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println("checkpoint written")
	default:
		fmt.Println("unknown directive", fields[0])
	}
}
