package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// collectInfo describes the machine, the build and the source tree the
// numbers belong to.
func collectInfo(root string, seed uint64, reps int, seconds float64, wall time.Duration) map[string]any {
	info := map[string]any{
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         1, // set by every measuring process, see main.go
		"go_version":         runtime.Version(),
		"cpu_model":          cpuModel(),
		"git_commit":         gitCommit(root),
		"seed":               seed,
		"topology_seed":      topologySeed,
		"reps_min":           reps,
		"seconds_min":        seconds,
		"total_wall_seconds": wall.Seconds(),
		"load":               "closed loop, one run at a time, one workload per process",
	}
	if size, err := sourceSize(root); err == nil {
		info["source"] = size
	} else {
		info["source"] = "not counted: " + err.Error()
	}
	return info
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceCount is the size of the program's source (the benchmark excluded):
// ROADMAP aim 2 judges simplifications by it.
type sourceCount struct {
	GoLines         int `json:"go_lines"`
	TestGoLines     int `json:"test_go_lines"`
	ExportedSymbols int `json:"exported_symbols"`
}

// sourceSize counts lines and exported top-level symbols (functions, methods
// of exported types, types, constants, variables) under internal/, cmd/ and
// the root package.
func sourceSize(root string) (sourceCount, error) {
	var c sourceCount
	fset := token.NewFileSet()
	count := func(path string) error {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines := bytes.Count(data, []byte{'\n'})
		if strings.HasSuffix(path, "_test.go") {
			c.TestGoLines += lines
			return nil
		}
		c.GoLines += lines
		file, err := parser.ParseFile(fset, path, data, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && (d.Recv == nil || receiverExported(d.Recv)) {
					c.ExportedSymbols++
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							c.ExportedSymbols++
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								c.ExportedSymbols++
							}
						}
					}
				}
			}
		}
		return nil
	}
	rootFiles, err := filepath.Glob(filepath.Join(root, "*.go"))
	if err != nil {
		return c, err
	}
	for _, f := range rootFiles {
		if err := count(f); err != nil {
			return c, err
		}
	}
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			return count(path)
		})
		if err != nil {
			return c, err
		}
	}
	return c, nil
}

func receiverExported(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}

// printTable writes every metric by name, with its unit, for people.
func printTable(w io.Writer, results []*workloadResult) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	for _, r := range results {
		fmt.Fprintf(tw, "\n%s\tattempted %d\tfailed %d\n", r.Workload, r.Attempted, r.Failed)
		for _, def := range endToEnd {
			m, ok := r.EndToEnd[def.Name]
			if !ok {
				continue
			}
			if s := m.Samples; s != nil {
				fmt.Fprintf(tw, "  %s\t%.4g %s\tmin %.4g  max %.4g  n=%d\t(%s is better, bound %.0f %%)\n",
					def.Name, m.Value, m.Unit, s.Min, s.Max, s.N, def.Better, 100*def.Bound)
			} else {
				fmt.Fprintf(tw, "  %s\t%.4g %s\tn=1\t(%s is better, bound %.0f %%)\n", def.Name, m.Value, m.Unit, def.Better, 100*def.Bound)
			}
		}
		for _, def := range perLayer {
			if m, ok := r.PerLayer[def.Name]; ok {
				fmt.Fprintf(tw, "  %s\t%.4g %s\t\t\n", def.Name, m.Value, m.Unit)
			}
		}
		keys := make([]string, 0, len(r.Info))
		for k := range r.Info {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(tw, "  info.%s\t%v\t\t\n", k, r.Info[k])
		}
	}
	tw.Flush()
}
