package fpvm

import (
	"sort"

	"fpvm/internal/alt"
	"fpvm/internal/hostlib"
	"fpvm/internal/kernel"
	"fpvm/internal/obj"
	"fpvm/internal/telemetry"
)

// Foreign function correctness (§2.6, §5.3): functions in shared libraries
// bit-interpret floating point arguments, so FPVM interposes wrapper stubs
// that demote NaN-boxed argument registers before the real function runs.
// (No promotion is needed afterwards: FP registers are caller-save, and
// library results are fresh IEEE doubles.)
//
// Two mechanisms are implemented, with identical runtime cost:
//
//   - Forward wrapping: the wrapper symbol is resolved ahead of the real
//     library in LD_PRELOAD order (WrapResolver).
//   - Magic wrapping: the program's relocations are rewritten to point at
//     "name$fpvm" symbols in a separate namespace (ApplyMagicWraps), the
//     way the paper uses Lief, so wrapped functions stay invisible to
//     FPVM's own code.

// MagicWrapSuffix is appended to symbol names by magic wrapping.
const MagicWrapSuffix = "$fpvm"

// libmUnary / libmBinary classify the libm surface FPVM can route into
// the alternative arithmetic system when it implements alt.MathSystem.
var libmUnary = map[string]bool{
	"sin": true, "cos": true, "tan": true, "asin": true, "acos": true,
	"atan": true, "exp": true, "log": true, "log10": true, "sqrt": true,
	"fabs": true,
}

var libmBinary = map[string]bool{
	"atan2": true, "pow": true, "hypot": true,
}

// InstallWrappers creates a wrapper host function for every export of
// lib and records both its plain name (forward wrapping) and its
// suffixed name (magic wrapping). Must run before image load. Wrappers
// are bound in sorted name order so the host bridge addresses that end
// up in guest-visible state (GOT slots, function pointers materialized
// by LoadImportAddr) are identical across runs of the same
// configuration — the differential oracle depends on that.
func (r *Runtime) InstallWrappers(lib *hostlib.Library) {
	if r.wrapperAddrs == nil {
		r.wrapperAddrs = make(map[string]uint64)
	}
	names := make([]string, 0, len(lib.Funcs))
	for name := range lib.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wrapped := r.makeWrapper(name, lib.Funcs[name])
		addr := r.p.BindHostAuto(wrapped)
		r.wrapperAddrs[name] = addr
		r.wrapped[name] = true
	}
	r.lib = lib
}

// makeWrapper builds the wrapper stub. For libm math functions whose
// alternative system implements alt.MathSystem (e.g. MPFR), the wrapper
// evaluates the function in the alternative system at full precision and
// returns a boxed result — the paper's hand-written libm forward wrappers
// that "interface with the alternative arithmetic system" (§5.3). For
// everything else (printf and friends, or systems without native libm),
// it demotes every possibly-boxed FP argument register (xmm0-7,
// conservatively — varargs functions may consume any of them) and calls
// the real host function.
func (r *Runtime) makeWrapper(name string, impl kernel.HostFunc) kernel.HostFunc {
	isUnary := libmUnary[name]
	isBinary := libmBinary[name]
	ms, isMath := r.Cfg.Alt.(alt.MathSystem)
	return func(p *kernel.Process) error {
		r.Tel.FCallEvents++
		r.charge(telemetry.FCall, r.Costs.WrapCall)
		cpu := &p.M.CPU

		if isMath && (isUnary || isBinary) {
			a, _ := r.resolve(cpu.XMM[0][0])
			var res alt.Value
			var cost uint64
			var handled bool
			if isUnary {
				res, cost, handled = ms.LibmUnary(name, a)
			} else {
				b, _ := r.resolve(cpu.XMM[1][0])
				res, cost, handled = ms.LibmBinary(name, a, b)
			}
			if handled {
				r.charge(telemetry.Altmath, cost)
				cpu.XMM[0] = [2]uint64{r.box(res), 0}
				return nil
			}
		}

		// demoteTo leaves anything but a live box as it is.
		for i := 0; i < 8; i++ {
			cpu.XMM[i][0] = r.demoteTo(cpu.XMM[i][0], telemetry.FCall)
		}
		return impl(p)
	}
}

// WrapResolver returns the process's dynamic symbol resolver with FPVM's
// wrappers interposed ahead of base (LD_PRELOAD order): forward wrapping.
// Magic-wrapped names ("sin$fpvm") are also always resolvable, so a
// magic-wrapped image loads with the same resolver.
func (r *Runtime) WrapResolver(base obj.Resolver) obj.Resolver {
	return func(name string) (uint64, bool) {
		if n, ok := cutSuffix(name, MagicWrapSuffix); ok {
			if addr, ok := r.wrapperAddrs[n]; ok {
				return addr, true
			}
		}
		if !r.Cfg.MagicWraps {
			if addr, ok := r.wrapperAddrs[name]; ok {
				return addr, true
			}
		}
		return base(name)
	}
}

// ApplyMagicWraps rewrites the image's relocations so every wrapped
// import "name" resolves through "name$fpvm" instead — the Lief-style
// symbol table modification of §5.3. It returns the number of relocations
// rewritten.
func (r *Runtime) ApplyMagicWraps(img *obj.Image) int {
	n := 0
	for i := range img.Relocs {
		if r.wrapped[img.Relocs[i].Symbol] {
			img.Relocs[i].Symbol += MagicWrapSuffix
			n++
		}
	}
	return n
}

func cutSuffix(s, suffix string) (string, bool) {
	if len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix {
		return s[:len(s)-len(suffix)], true
	}
	return s, false
}
