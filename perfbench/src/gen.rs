//! Seeded input generation: the PRNG, QASM comment stripping and qubit
//! relabelling, Zipf popularity counts and rotation-angle sweeps.
//!
//! Everything here is a pure function of the workload seed, so the same
//! `--seed` always hands the programs byte-identical inputs.

/// SplitMix64: tiny, fast and fully specified, so generated inputs do not
/// depend on any library's RNG implementation.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) under one workload seed;
    /// separate streams keep one generator's draws from shifting another's.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// Drops `//` comments and blank lines. The daemon only recognises a
/// QASM body whose first bytes are `OPENQASM`, and every committed
/// `tests/qasm` file opens with a comment block.
pub fn strip_comments(source: &str) -> String {
    let mut out = String::new();
    for line in source.lines() {
        let code = line.find("//").map_or(line, |at| &line[..at]).trim_end();
        if !code.trim().is_empty() {
            out.push_str(code);
            out.push('\n');
        }
    }
    out
}

/// The `qreg` declarations of a program, in order: `(name, size)`.
pub fn qregs(source: &str) -> Vec<(String, usize)> {
    let mut regs = Vec::new();
    for stmt in source.split(';') {
        // A declaration may follow the closing brace of a `gate` body.
        let stmt = stmt.rsplit(['{', '}']).next().unwrap_or(stmt).trim();
        let Some(rest) = stmt.strip_prefix("qreg") else {
            continue;
        };
        let rest = rest.trim();
        if let (Some(open), Some(close)) = (rest.find('['), rest.find(']')) {
            if let Ok(size) = rest[open + 1..close].trim().parse() {
                regs.push((rest[..open].trim().to_string(), size));
            }
        }
    }
    regs
}

/// A qubit relabelling that permutes each register within itself, so
/// register-wide statements (`barrier q;`) keep their meaning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Relabelling {
    /// `(register, permutation of 0..size)`, in declaration order.
    pub registers: Vec<(String, Vec<usize>)>,
}

impl Relabelling {
    pub fn random(source: &str, rng: &mut Rng) -> Relabelling {
        Relabelling {
            registers: qregs(source)
                .into_iter()
                .map(|(name, size)| (name, rng.permutation(size)))
                .collect(),
        }
    }

    /// The permutation over global circuit wires (registers concatenate
    /// in declaration order, as in the parser).
    #[cfg(test)]
    pub fn wires(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (_, perm) in &self.registers {
            let offset = out.len();
            out.extend(perm.iter().map(|&p| p + offset));
        }
        out
    }

    fn lookup(&self, name: &str) -> Option<&[usize]> {
        self.registers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_slice())
    }

    /// Rewrites a comment-free program so that wire `w` becomes
    /// `wires()[w]`. Gate statements that broadcast over a whole register
    /// (`h q;`) are first expanded in index order, so the result parses to
    /// exactly `circuit.map_qubits(..)` of the original, gate order and
    /// levels included. `gate` bodies only name formal parameters and are
    /// copied verbatim.
    ///
    /// # Errors
    ///
    /// A broadcast the expansion does not cover (several register
    /// arguments in one gate statement).
    pub fn apply(&self, source: &str) -> Result<String, String> {
        let mut out = String::new();
        let mut depth = 0usize;
        for line in source.lines() {
            let trimmed = line.trim();
            if depth > 0 || trimmed.starts_with("gate ") || trimmed.starts_with("opaque ") {
                depth += trimmed.matches('{').count();
                depth = depth.saturating_sub(trimmed.matches('}').count());
                out.push_str(line);
                out.push('\n');
                continue;
            }
            for stmt in trimmed.split(';').map(str::trim).filter(|s| !s.is_empty()) {
                self.apply_statement(stmt, &mut out)?;
            }
        }
        Ok(out)
    }

    fn apply_statement(&self, stmt: &str, out: &mut String) -> Result<(), String> {
        const KEEP: [&str; 8] = [
            "OPENQASM", "include", "qreg", "creg", "barrier", "measure", "reset", "if",
        ];
        let first_word = stmt
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .next()
            .unwrap_or("");
        if KEEP.contains(&first_word) {
            let text = if stmt.starts_with("qreg") {
                stmt.to_string()
            } else {
                self.rename_indexed(stmt)
            };
            out.push_str(&text);
            out.push_str(";\n");
            return Ok(());
        }
        // A gate application: `<name>[(params)] <args>`.
        let head_end = match (stmt.find('('), stmt.find(char::is_whitespace)) {
            (Some(p), Some(w)) if p < w => stmt[p..].find(')').map_or(w, |c| p + c + 1),
            (_, Some(w)) => w,
            _ => return Err(format!("unrecognised statement `{stmt}`")),
        };
        let (head, args) = stmt.split_at(head_end);
        let args: Vec<&str> = args.split(',').map(str::trim).collect();
        let whole: Vec<&str> = args
            .iter()
            .copied()
            .filter(|a| self.lookup(a).is_some())
            .collect();
        match whole.as_slice() {
            [] => {
                out.push_str(&self.rename_indexed(stmt));
                out.push_str(";\n");
            }
            [reg] if args.len() == 1 => {
                let size = self.lookup(reg).map_or(0, <[usize]>::len);
                for i in 0..size {
                    let expanded = format!("{} {reg}[{i}]", head.trim());
                    out.push_str(&self.rename_indexed(&expanded));
                    out.push_str(";\n");
                }
            }
            _ => return Err(format!("unsupported register broadcast in `{stmt}`")),
        }
        Ok(())
    }

    /// Renames every `reg[i]` reference to a quantum register.
    fn rename_indexed(&self, text: &str) -> String {
        let bytes = text.as_bytes();
        let mut out = String::with_capacity(text.len() + 8);
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i];
            let at_word = (c.is_ascii_alphabetic() || c == b'_')
                && (i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_'));
            if at_word {
                let mut j = i;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                let name = &text[i..j];
                if let (Some(perm), Some(b'[')) = (self.lookup(name), bytes.get(j)) {
                    if let Some(close) = text[j..].find(']') {
                        if let Ok(idx) = text[j + 1..j + close].trim().parse::<usize>() {
                            let mapped = perm.get(idx).copied().unwrap_or(idx);
                            out.push_str(&format!("{name}[{mapped}]"));
                            i = j + close + 1;
                            continue;
                        }
                    }
                }
                out.push_str(name);
                i = j;
                continue;
            }
            out.push(c as char);
            i += 1;
        }
        out
    }
}

/// How many of `total` requests go to each of `n` ranks under Zipf
/// popularity with exponent 1 (rank `r` weighs `1 / (r + 1)`), by largest
/// remainder. Fixed counts, shuffled by the caller, keep the mix — and so
/// hit counts, `exact_share` and quality — the same for every seed; only
/// the order, relabellings and angles vary.
pub fn zipf_counts(total: usize, n: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
    let sum: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        (shares[b] - shares[b].floor()).total_cmp(&(shares[a] - shares[a].floor()))
    });
    let short = total - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().take(short) {
        counts[r] += 1;
    }
    counts
}

/// Rotation gates whose angle parameter a sweep re-draws.
const SWEPT: [&str; 5] = ["rx(", "ry(", "rz(", "rzz(", "rxx("];

/// Largest relative step a sweep point takes from each committed angle.
const SWEEP_STEP: f64 = 0.05;

/// A parameter-sweep point: the same ansatz with every rotation angle
/// moved by a fresh draw of up to ±[`SWEEP_STEP`] of itself, as one step
/// of a variational optimizer. Angles enter the cache key, so every sweep
/// point is a distinct placement problem; small steps keep the placed
/// runtimes, and so the quality metric, nearly independent of the seed.
///
/// # Errors
///
/// An angle that is not a number, `pi`, `pi/N` or `N*pi`.
pub fn sweep_point(source: &str, rng: &mut Rng) -> Result<String, String> {
    let mut out = String::new();
    for line in source.lines() {
        let t = line.trim_start();
        match (SWEPT.iter().find(|g| t.starts_with(**g)), t.find(')')) {
            (Some(gate), Some(close)) => {
                let base = angle_value(&t[gate.len()..close])?;
                let angle = base * (1.0 + SWEEP_STEP * (2.0 * rng.unit() - 1.0));
                out.push_str(&format!("{gate}{angle:?}{}", &t[close..]));
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    Ok(out)
}

/// Evaluates the angle expressions the corpus uses: a number, `pi`,
/// `pi/N` or `N*pi`, optionally negated.
fn angle_value(expr: &str) -> Result<f64, String> {
    let expr = expr.trim();
    if let Some(rest) = expr.strip_prefix('-') {
        return angle_value(rest).map(|v| -v);
    }
    let number = |s: &str| {
        s.trim()
            .parse::<f64>()
            .map_err(|_| format!("unsupported angle `{expr}`"))
    };
    let pi = std::f64::consts::PI;
    if expr == "pi" {
        Ok(pi)
    } else if let Some(d) = expr.strip_prefix("pi/") {
        Ok(pi / number(d)?)
    } else if let Some(m) = expr.strip_suffix("*pi") {
        Ok(number(m)? * pi)
    } else {
        number(expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcp_circuit::{qasm, Qubit};

    fn corpus() -> Vec<(String, String)> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../tests/qasm");
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("corpus directory")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "qasm"))
            .collect();
        files.sort();
        files
            .into_iter()
            .map(|p| {
                let text = std::fs::read_to_string(&p).expect("read corpus file");
                (p.display().to_string(), strip_comments(&text))
            })
            .collect()
    }

    #[test]
    fn generators_are_deterministic_for_a_seed() {
        for seed in [0u64, 7, 12345] {
            let (mut a, mut b) = (Rng::new(seed, 3), Rng::new(seed, 3));
            assert_eq!(a.permutation(50), b.permutation(50));
            for (_, src) in corpus() {
                let ra = Relabelling::random(&src, &mut a);
                let rb = Relabelling::random(&src, &mut b);
                assert_eq!(ra, rb);
                assert_eq!(sweep_point(&src, &mut a), sweep_point(&src, &mut b));
            }
        }
        assert_ne!(Rng::new(1, 0).next_u64(), Rng::new(2, 0).next_u64());
    }

    #[test]
    fn every_relabelling_is_a_permutation_and_relabels_the_circuit() {
        let mut rng = Rng::new(99, 1);
        for (path, src) in corpus() {
            let original = qasm::parse(&src).expect("corpus parses").circuit;
            for _ in 0..8 {
                let r = Relabelling::random(&src, &mut rng);
                let wires = r.wires();
                let mut seen = wires.clone();
                seen.sort_unstable();
                assert_eq!(seen, (0..wires.len()).collect::<Vec<_>>(), "{path}");
                assert_eq!(wires.len(), original.qubit_count(), "{path}");
                let text = r.apply(&src).expect("relabel");
                assert!(text.starts_with("OPENQASM"), "{path}");
                let relabelled = qasm::parse(&text).expect("relabelled parses").circuit;
                let expected =
                    original.map_qubits(original.qubit_count(), |q| Qubit::new(wires[q.index()]));
                assert_eq!(relabelled, expected, "{path}");
            }
        }
    }

    #[test]
    fn zipf_counts_follow_popularity_and_sum_to_the_total() {
        for total in [0, 1, 19, 1440, 2161] {
            let counts = zipf_counts(total, 20);
            assert_eq!(counts.iter().sum::<usize>(), total);
            assert!(counts.windows(2).all(|w| w[0] + 1 >= w[1]), "{counts:?}");
        }
        let harmonic: f64 = (1..=20).map(|r| 1.0 / f64::from(r)).sum();
        let counts = zipf_counts(1440, 20);
        assert!((counts[0] as f64 - 1440.0 / harmonic).abs() < 1.0);
        assert!((counts[19] as f64 - 1440.0 / harmonic / 20.0).abs() < 1.0);
    }

    #[test]
    fn sweep_points_change_only_angles() {
        for source in ["hwe4", "ising6"] {
            let path = format!("{}/../tests/qasm/{source}.qasm", env!("CARGO_MANIFEST_DIR"));
            let src = strip_comments(&std::fs::read_to_string(path).expect("corpus file"));
            let original = qasm::parse(&src).expect("parse").circuit;
            let mut rng = Rng::new(3, 3);
            let a = sweep_point(&src, &mut rng).expect("sweep");
            let b = sweep_point(&src, &mut rng).expect("sweep");
            assert_ne!(a, b);
            for point in [a, b] {
                let swept = qasm::parse(&point).expect("parse").circuit;
                assert_eq!(swept.gate_count(), original.gate_count());
                assert_eq!(
                    swept.two_qubit_gate_count(),
                    original.two_qubit_gate_count()
                );
            }
        }
    }

    #[test]
    fn angle_expressions() {
        let pi = std::f64::consts::PI;
        assert_eq!(angle_value("0.61"), Ok(0.61));
        assert_eq!(angle_value("pi/4"), Ok(pi / 4.0));
        assert_eq!(angle_value("-pi/2"), Ok(-pi / 2.0));
        assert_eq!(angle_value("2*pi"), Ok(2.0 * pi));
        assert!(angle_value("theta").is_err());
    }
}
