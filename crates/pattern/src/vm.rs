//! Pike-style NFA virtual machine.
//!
//! The VM executes the compiled [`Program`](crate::compile::Program) over
//! a haystack in `O(len · insts)` worst case: a thread set (deduplicated
//! by generation stamps) advances one input char at a time, following
//! epsilon transitions (splits, jumps, zero-width assertions) eagerly.
//!
//! Two entry points:
//! * [`Regex::is_match`] — unanchored containment test (new threads are
//!   injected at every position).
//! * [`Regex::find`] — leftmost-longest match, returned as byte offsets
//!   aligned to char boundaries so callers can slice the haystack.

use crate::compile::{compile, Inst, Program};
use crate::parser::{is_word_char, parse, PatternError};

/// A successful match: byte offsets into the searched text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Match {
    /// Byte offset of the first matched char.
    pub start: usize,
    /// Byte offset one past the last matched char.
    pub end: usize,
}

impl Match {
    /// Slice the matched region out of the original text.
    pub fn as_str<'t>(&self, text: &'t str) -> &'t str {
        &text[self.start..self.end]
    }

    /// Length of the match in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for a zero-width match.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A compiled pattern.
///
/// Construction parses and compiles once; matching never allocates more
/// than the two thread lists (reused across steps within one call).
#[derive(Clone, Debug)]
pub struct Regex {
    program: Program,
    pattern: String,
}

impl Regex {
    /// Compile a case-sensitive pattern.
    pub fn new(pattern: &str) -> Result<Self, PatternError> {
        let ast = parse(pattern)?;
        Ok(Regex {
            program: compile(&ast, false),
            pattern: pattern.to_string(),
        })
    }

    /// Compile a case-insensitive pattern (ASCII folding, which covers
    /// the corpora generated in this workspace).
    pub fn new_case_insensitive(pattern: &str) -> Result<Self, PatternError> {
        let ast = parse(pattern)?;
        Ok(Regex {
            program: compile(&ast, true),
            pattern: pattern.to_string(),
        })
    }

    /// The original pattern text.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    fn fold(&self, c: char) -> char {
        if self.program.case_insensitive {
            c.to_ascii_lowercase()
        } else {
            c
        }
    }

    /// Unanchored containment test.
    pub fn is_match(&self, text: &str) -> bool {
        let chars: Vec<char> = text.chars().map(|c| self.fold(c)).collect();
        let mut vm = Vm::new(&self.program.insts);
        // Threads are injected at every start position, so reaching Match
        // anywhere means some substring matches.
        let n = chars.len();
        let mut current: Vec<usize> = Vec::new();
        let mut next: Vec<usize> = Vec::new();
        for pos in 0..=n {
            vm.new_generation();
            // Carry over surviving threads and inject a fresh start.
            for &pc in &current {
                if vm.add_thread(pc, pos, &chars) {
                    return true;
                }
            }
            if vm.add_thread(0, pos, &chars) {
                return true;
            }
            if pos == n {
                break;
            }
            let c = chars[pos];
            next.clear();
            for &pc in &vm.closure {
                match &self.program.insts[pc] {
                    Inst::Char(want) if *want == c => next.push(pc + 1),
                    Inst::AnyChar if c != '\n' => next.push(pc + 1),
                    Inst::Class(cls) if cls.matches(c) => next.push(pc + 1),
                    _ => {}
                }
            }
            std::mem::swap(&mut current, &mut next);
        }
        false
    }

    /// Leftmost-longest match as byte offsets, or `None`.
    pub fn find(&self, text: &str) -> Option<Match> {
        let mut byte_of_char: Vec<usize> = Vec::with_capacity(text.len() + 1);
        let mut chars: Vec<char> = Vec::with_capacity(text.len());
        for (b, c) in text.char_indices() {
            byte_of_char.push(b);
            chars.push(self.fold(c));
        }
        byte_of_char.push(text.len());
        for start in 0..=chars.len() {
            if let Some(end) = self.anchored_longest_end(&chars, start) {
                return Some(Match {
                    start: byte_of_char[start],
                    end: byte_of_char[end],
                });
            }
        }
        None
    }

    /// All non-overlapping leftmost-longest matches, scanning left to
    /// right. Zero-width matches advance by one char to guarantee
    /// termination.
    pub fn find_all(&self, text: &str) -> Vec<Match> {
        let mut out = Vec::new();
        let mut offset = 0;
        while offset <= text.len() {
            let Some(m) = self.find(&text[offset..]) else {
                break;
            };
            let abs = Match {
                start: offset + m.start,
                end: offset + m.end,
            };
            let next = if abs.is_empty() {
                // Skip one char forward past a zero-width match.
                match text[abs.end..].chars().next() {
                    Some(c) => abs.end + c.len_utf8(),
                    None => break,
                }
            } else {
                abs.end
            };
            out.push(abs);
            offset = next;
        }
        out
    }

    /// Longest end position (char index) of a match anchored at `start`.
    fn anchored_longest_end(&self, chars: &[char], start: usize) -> Option<usize> {
        let mut vm = Vm::new(&self.program.insts);
        let n = chars.len();
        let mut best: Option<usize> = None;
        vm.new_generation();
        if vm.add_thread(0, start, chars) {
            best = Some(start);
        }
        let mut current = vm.closure.clone();
        for pos in start..n {
            if current.is_empty() {
                break;
            }
            let c = chars[pos];
            let mut advanced: Vec<usize> = Vec::new();
            for &pc in &current {
                match &self.program.insts[pc] {
                    Inst::Char(want) if *want == c => advanced.push(pc + 1),
                    Inst::AnyChar if c != '\n' => advanced.push(pc + 1),
                    Inst::Class(cls) if cls.matches(c) => advanced.push(pc + 1),
                    _ => {}
                }
            }
            vm.new_generation();
            let mut matched = false;
            for pc in advanced {
                matched |= vm.add_thread(pc, pos + 1, chars);
            }
            if matched {
                best = Some(pos + 1);
            }
            current.clone_from(&vm.closure);
        }
        best
    }
}

/// Thread-set bookkeeping: epsilon closure with generation-stamped
/// deduplication.
struct Vm<'p> {
    insts: &'p [Inst],
    seen: Vec<u32>,
    generation: u32,
    closure: Vec<usize>,
}

impl<'p> Vm<'p> {
    fn new(insts: &'p [Inst]) -> Self {
        Vm {
            insts,
            seen: vec![0; insts.len()],
            generation: 0,
            closure: Vec::new(),
        }
    }

    fn new_generation(&mut self) {
        self.generation += 1;
        self.closure.clear();
    }

    /// Add `pc` and its epsilon closure at input position `pos`.
    /// Returns true if the closure contains `Match`.
    fn add_thread(&mut self, pc: usize, pos: usize, chars: &[char]) -> bool {
        if self.seen[pc] == self.generation {
            return false;
        }
        self.seen[pc] = self.generation;
        match &self.insts[pc] {
            Inst::Jmp(t) => self.add_thread(*t, pos, chars),
            Inst::Split(a, b) => {
                let (a, b) = (*a, *b);
                let ma = self.add_thread(a, pos, chars);
                let mb = self.add_thread(b, pos, chars);
                ma || mb
            }
            Inst::AssertStart => pos == 0 && self.add_thread(pc + 1, pos, chars),
            Inst::AssertEnd => pos == chars.len() && self.add_thread(pc + 1, pos, chars),
            Inst::AssertWordBoundary => {
                at_word_boundary(chars, pos) && self.add_thread(pc + 1, pos, chars)
            }
            Inst::AssertNotWordBoundary => {
                !at_word_boundary(chars, pos) && self.add_thread(pc + 1, pos, chars)
            }
            Inst::Match => true,
            Inst::Char(_) | Inst::AnyChar | Inst::Class(_) => {
                self.closure.push(pc);
                false
            }
        }
    }
}

fn at_word_boundary(chars: &[char], pos: usize) -> bool {
    let before = pos.checked_sub(1).map(|i| is_word_char(chars[i]));
    let after = chars.get(pos).map(|&c| is_word_char(c));
    matches!(
        (before, after),
        (None | Some(false), Some(true)) | (Some(true), None | Some(false))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn re(p: &str) -> Regex {
        Regex::new(p).unwrap()
    }

    #[test]
    fn basic_matching() {
        assert!(re("abc").is_match("xxabcxx"));
        assert!(!re("abc").is_match("ab c"));
        assert!(re("a.c").is_match("a!c"));
        assert!(!re("a.c").is_match("a\nc"));
    }

    #[test]
    fn quantifiers() {
        assert!(re("ab*c").is_match("ac"));
        assert!(re("ab*c").is_match("abbbbc"));
        assert!(re("ab+c").is_match("abc"));
        assert!(!re("ab+c").is_match("ac"));
        assert!(re("ab?c").is_match("ac"));
        assert!(re("ab?c").is_match("abc"));
        assert!(!re("ab?c").is_match("abbc"));
        assert!(re("a{2,3}").is_match("aa"));
        assert!(re("^a{2,3}$").is_match("aaa"));
        assert!(!re("^a{2,3}$").is_match("aaaa"));
        assert!(!re("^a{2,3}$").is_match("a"));
    }

    #[test]
    fn alternation_and_groups() {
        let r = re("(cause|induce)(s|d)?");
        assert!(r.is_match("caused"));
        assert!(r.is_match("induces"));
        assert!(r.is_match("cause"));
        assert!(!r.is_match("cuase"));
        assert!(re("(?:ab)+").is_match("abab"));
    }

    #[test]
    fn anchors() {
        assert!(re("^abc$").is_match("abc"));
        assert!(!re("^abc$").is_match("xabc"));
        assert!(!re("^abc$").is_match("abcx"));
        assert!(re("^").is_match("anything"));
        assert!(re("$").is_match(""));
    }

    #[test]
    fn word_boundaries() {
        let r = re(r"\bcat\b");
        assert!(r.is_match("a cat sat"));
        assert!(r.is_match("cat"));
        assert!(!r.is_match("concatenate"));
        assert!(!r.is_match("cats"));
        let nb = re(r"\Bcat");
        assert!(nb.is_match("concat"));
        assert!(!nb.is_match("a cat"));
    }

    #[test]
    fn classes() {
        assert!(re(r"\d{3}").is_match("abc123"));
        assert!(!re(r"^\d+$").is_match("12a"));
        assert!(re(r"[aeiou]+").is_match("xyzu"));
        assert!(re(r"[^aeiou ]+").is_match("rhythm"));
        assert!(re(r"[a-fA-F0-9]+").is_match("DEADbeef"));
        assert!(re(r"\w+@\w+\.com").is_match("mail me at bob@example.com ok"));
    }

    #[test]
    fn case_insensitive() {
        let r = Regex::new_case_insensitive("CaUsEs").unwrap();
        assert!(r.is_match("X CAUSES Y"));
        assert!(r.is_match("x causes y"));
        let r = Regex::new_case_insensitive("[a-z]+!").unwrap();
        assert!(r.is_match("HELLO!"));
    }

    #[test]
    fn find_leftmost_longest() {
        let r = re("a+");
        let m = r.find("xxaaayaa").unwrap();
        assert_eq!((m.start, m.end), (2, 5));
        assert_eq!(m.as_str("xxaaayaa"), "aaa");

        // Leftmost beats longest-overall.
        let r = re("a|aa");
        let m = r.find("baa").unwrap();
        assert_eq!((m.start, m.end), (1, 3), "longest at the leftmost start");
    }

    #[test]
    fn find_none() {
        assert!(re("zz").find("abc").is_none());
    }

    #[test]
    fn find_all_non_overlapping() {
        let r = re(r"\d+");
        let ms = r.find_all("a1b22c333");
        let spans: Vec<(usize, usize)> = ms.iter().map(|m| (m.start, m.end)).collect();
        assert_eq!(spans, vec![(1, 2), (3, 5), (6, 9)]);
    }

    #[test]
    fn find_all_zero_width_terminates() {
        let r = re("x*");
        let ms = r.find_all("ab");
        assert!(!ms.is_empty());
        assert!(ms.len() <= 3);
    }

    #[test]
    fn unicode_haystack_byte_offsets() {
        let r = re("ß");
        let text = "straße here";
        let m = r.find(text).unwrap();
        assert_eq!(m.as_str(text), "ß");
    }

    #[test]
    fn paper_example_pattern() {
        // The paper's LF_causes declarative form:
        // "{{1}}.*\Wcauses\W.*{{2}}" with slots pre-substituted.
        let r = re(r"magnesium.*\Wcauses\W.*quadriplegic");
        assert!(r.is_match("parenteral magnesium administration causes a quadriplegic state"));
        assert!(!r.is_match("quadriplegic after magnesium"));
    }

    #[test]
    fn pathological_pattern_is_linear() {
        // (a*)* style blowup killers for backtrackers; the Pike VM must
        // stay fast and terminate.
        let r = re("(a|a)*b");
        let hay = "a".repeat(2000);
        assert!(!r.is_match(&hay));
        let mut hay2 = hay.clone();
        hay2.push('b');
        assert!(r.is_match(&hay2));
    }

    #[test]
    fn empty_pattern_matches_everything() {
        assert!(re("").is_match(""));
        assert!(re("").is_match("abc"));
        let m = re("").find("abc").unwrap();
        assert_eq!((m.start, m.end), (0, 0));
    }
}
