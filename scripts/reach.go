//go:build ignore

// Reach checks that every function of the program is reached by a binary:
// that some main package's linked executable keeps it. The roots are the
// main packages under cmd/ and benchmark/. The examples are neither roots nor
// checked: an example may call anything, but keeps nothing alive. Run it from
// the repo root:
//
//	go run scripts/reach.go
//
// It links each main package with the linker's dependency dump
// (-ldflags=-dumpdep; -gcflags=all=-l, so that an inlined callee keeps a
// symbol of its own), collects the symbols the dump names, and matches them
// against every non-test function declaration of the module. A function is
// reached only if its own symbol is in a dump: the aux symbols beside it
// (.arginfo1, .stkobj, …) prove nothing, because the linker merges aux
// symbols of equal content and names each after whichever function came
// first. A value-receiver method is reached as T.M or as its (*T).M wrapper;
// a generic function or method is matched with its instantiation's brackets
// removed; a main package is matched against its own binary alone; init is
// not checked.
//
// Every unreached function is printed as "file:line name (lines)". The run
// fails on one the allow-list below does not name, and on an allow-list
// entry that is stale: reached now, or gone.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// throttled is why the paced links stay although no binary reaches them:
// two packages' tests use them, so no one package's _test.go can hold them.
const throttled = "test instrument: the runtime and executor tests pace their links with it, and TestScheduleIsExecuted holds those links to pipeline.Schedule"

// allowed names what stays although no binary reaches it, each with its
// reason: a whole package by import path, or one function by its symbol.
var allowed = []struct{ name, why string }{
	{"ecofl/internal/obs/leakcheck", "test instrument: tests import it to fail on a leaked goroutine"},
	{"ecofl/internal/obs/journal/journaltest", "test instrument: a failing test prints its journals' timeline through it"},
	{"ecofl/internal/pipeline/runtime.ThrottledLinks", throttled},
	{"ecofl/internal/simnet.Throttle", throttled},
	{"ecofl/internal/simnet.(*Link).Write", throttled},
	{"ecofl/internal/simnet.(*Link).deliver", throttled},
	{"ecofl/internal/simnet.(*Link).SetWriteDeadline", throttled},
	{"ecofl/internal/simnet.(*Link).Close", throttled},
	{"ecofl/internal/adaptive.(*Monitor).History", "the measured-latency path reads the smoothed latency through it; ROADMAP item 1c wires that path into a binary"},
	{"ecofl/internal/fl.(*Population).ApplyMeasuredLatencies", "measured-latency grouping, tested; ROADMAP item 1c wires it into a binary"},
	{"ecofl/internal/fl.(*Population).EvictStragglers", "measured-latency grouping, tested; ROADMAP item 1c wires it into a binary"},
	{"ecofl/internal/flnet.(*StragglerDetector).MeasuredLatency", "measured-latency grouping, tested; ROADMAP item 1c wires it into a binary"},
	{"ecofl/internal/flnet.(*StragglerDetector).MeasuredLatencies", "measured-latency grouping, tested; ROADMAP item 1c wires it into a binary"},
}

// pkg is one package of the module as go list reports it for this platform.
type pkg struct {
	path, name, dir string
	files           []string
}

// fn is one function declaration: its symbol, and (for a value receiver) the
// symbol of the pointer wrapper that also counts.
type fn struct {
	pkg, sym, alt string
	pos           token.Position
	lines         int
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

func run() error {
	pkgs, err := listPackages()
	if err != nil {
		return err
	}
	// Every binary's symbols, and each main package's own.
	reached := map[string]bool{}
	mains := map[string]map[string]bool{}
	for _, p := range pkgs {
		if p.name != "main" {
			continue
		}
		syms, err := linkedSymbols(p.path)
		if err != nil {
			return err
		}
		mains[p.path] = syms
		for s := range syms {
			reached[s] = true
		}
	}

	fset := token.NewFileSet()
	var unreached []fn
	exists := map[string]bool{}  // every package and function
	livePkg := map[string]bool{} // a package with a reached function
	for _, p := range pkgs {
		exists[p.path] = true
		in := reached
		if p.name == "main" {
			in = mains[p.path]
		}
		fns, err := declared(fset, p)
		if err != nil {
			return err
		}
		for _, f := range fns {
			exists[f.sym] = true
			if !in[f.sym] && (f.alt == "" || !in[f.alt]) {
				unreached = append(unreached, f)
			} else {
				livePkg[f.pkg] = true
			}
		}
	}

	why := map[string]string{}
	for _, a := range allowed {
		why[a.name] = a.why
	}
	used := map[string]bool{}
	unlisted, stale := 0, 0
	root, _ := os.Getwd()
	for _, f := range unreached {
		file, err := filepath.Rel(root, f.pos.Filename)
		if err != nil {
			file = f.pos.Filename
		}
		line := fmt.Sprintf("%s:%d %s (%d)", file, f.pos.Line, f.sym, f.lines)
		key := f.sym
		if _, ok := why[key]; !ok {
			key = f.pkg
		}
		if r, ok := why[key]; ok {
			used[key] = true
			fmt.Printf("%s  listed: %s\n", line, r)
			continue
		}
		fmt.Printf("%s  UNREACHED\n", line)
		unlisted++
	}
	for _, a := range allowed {
		switch {
		case !exists[a.name]:
			fmt.Printf("stale allow-list entry %s: no such package or function\n", a.name)
			stale++
		case !used[a.name] || livePkg[a.name]:
			fmt.Printf("stale allow-list entry %s: a binary reaches it now\n", a.name)
			stale++
		}
	}
	fmt.Printf("reach: %d unreached functions in %d lines, %d allow-list entries\n",
		len(unreached), sumLines(unreached), len(allowed))
	if unlisted+stale > 0 {
		return fmt.Errorf("%d unreached functions not on the allow-list, %d stale entries: delete an unreached function, "+
			"move it into a _test.go file, or list it with a reason", unlisted, stale)
	}
	return nil
}

// listPackages lists the module's packages, the examples left out, with the
// non-test Go files this platform builds.
func listPackages() ([]pkg, error) {
	out, err := exec.Command("go", "list", "-f",
		"{{.ImportPath}}\t{{.Name}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var pkgs []pkg
	for _, l := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(l, "\t")
		if len(f) != 4 {
			return nil, fmt.Errorf("go list: unexpected line %q", l)
		}
		if strings.HasPrefix(f[0], "ecofl/examples/") {
			continue
		}
		pkgs = append(pkgs, pkg{path: f[0], name: f[1], dir: f[2], files: strings.Fields(f[3])})
	}
	return pkgs, nil
}

// linkedSymbols links the main package at path, discarding the binary, and
// returns every symbol the linker's dependency dump names, on either side of
// an edge, with its annotations and generic brackets removed.
func linkedSymbols(path string) (map[string]bool, error) {
	cmd := exec.Command("go", "build", "-o", os.DevNull, "-gcflags=all=-l", "-ldflags=-dumpdep", path)
	var dump bytes.Buffer
	cmd.Stderr = &dump
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("linking %s: %w\n%s", path, err, tail(dump.String()))
	}
	syms := map[string]bool{}
	sc := bufio.NewScanner(&dump)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		for _, s := range [2]string{from, to} {
			if i := strings.Index(s, " <"); i >= 0 {
				s = s[:i]
			}
			syms[stripBrackets(strings.TrimSpace(s))] = true
		}
	}
	if len(syms) == 0 {
		return nil, fmt.Errorf("linking %s: empty dependency dump", path)
	}
	return syms, sc.Err()
}

// stripBrackets removes each bracketed part of a symbol — a generic
// instantiation's type arguments — and keeps what follows it.
func stripBrackets(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declared returns p's non-test function declarations, init excepted, as
// linker symbols: a main package's under "main.".
func declared(fset *token.FileSet, p pkg) ([]fn, error) {
	prefix := p.path
	if p.name == "main" {
		prefix = "main"
	}
	var fns []fn
	for _, name := range p.files {
		file, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			f := fn{pkg: p.path, pos: fset.Position(fd.Pos()),
				lines: fset.Position(fd.End()).Line - fset.Position(fd.Pos()).Line + 1}
			if fd.Recv == nil {
				f.sym = prefix + "." + fd.Name.Name
			} else {
				typ, ptr := receiver(fd.Recv.List[0].Type)
				if ptr {
					f.sym = fmt.Sprintf("%s.(*%s).%s", prefix, typ, fd.Name.Name)
				} else {
					f.sym = fmt.Sprintf("%s.%s.%s", prefix, typ, fd.Name.Name)
					f.alt = fmt.Sprintf("%s.(*%s).%s", prefix, typ, fd.Name.Name)
				}
			}
			fns = append(fns, f)
		}
	}
	return fns, nil
}

// receiver returns a receiver's type name, without type parameters, and
// whether it is a pointer.
func receiver(e ast.Expr) (string, bool) {
	ptr := false
	if s, ok := e.(*ast.StarExpr); ok {
		e, ptr = s.X, true
	}
	switch t := e.(type) {
	case *ast.IndexExpr:
		e = t.X
	case *ast.IndexListExpr:
		e = t.X
	}
	return e.(*ast.Ident).Name, ptr
}

func sumLines(fns []fn) int {
	n := 0
	for _, f := range fns {
		n += f.lines
	}
	return n
}

// tail is the last few lines of a failed link's output.
func tail(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}
