//! The line-delimited request protocol and the wire-expressible LF
//! grammar.
//!
//! Requests are single text lines; responses are single lines starting
//! `OK ` or `ERR `. Floats in responses use Rust's shortest
//! round-trip formatting, so a client parsing them back gets the exact
//! `f64` the server computed — the torn-read harness relies on this.
//!
//! ```text
//! PING
//! MARGINAL <col>:<vote>[,<col>:<vote>…]        posterior for one vote row
//! APPLY <s1> <e1> <s2> <e2> <text…>            run the live suite on a transient
//!                                              candidate (token-range spans)
//! PREDICT <feature…>                           distilled-model posterior for raw
//!                                              feature strings (no LF coverage needed)
//! PREDICT_TEXT <s1> <e1> <s2> <e2> <text…>     featurize a transient candidate and
//!                                              answer from the distilled model
//! INGEST <s1> <e1> <s2> <e2> <text…>           append a candidate to the corpus and
//!                                              absorb it through the streaming plane
//! REFRESH                                      re-label with the current suite
//! REFRESH ADD <lf-spec>                        add an LF, then refresh
//! REFRESH EDIT <lf-spec>                       replace the same-named LF, then refresh
//! REFRESH REMOVE <name>                        drop an LF, then refresh
//! SNAPSHOT [path]                              write a snapshot now
//! STATS                                        counters and suite layout
//! METRICS                                      Prometheus-text exposition (multi-line)
//! SLOWLOG <n>                                  n slowest recent requests (multi-line)
//! PROMOTE                                      seal the log, flip follower → leader
//! SHUTDOWN                                     graceful stop
//! ```
//!
//! `METRICS` and `SLOWLOG` are the only verbs with multi-line replies:
//! a header `OK … lines=<k>` followed by exactly `k` raw payload lines.
//!
//! The normative wire grammar — every verb, reply shape, and error —
//! lives in `docs/PROTOCOL.md`; this module documents the subset it
//! implements.
//!
//! LF specs (the REFRESH payload) cover the declarative operator
//! families that are expressible as data — arbitrary closure LFs cannot
//! cross a wire:
//!
//! ```text
//! <name> KEYWORD <fwd-label> <rev-label> <kw>[,<kw>…]   KeywordBetweenLf
//! <name> PATTERN <label> <template…>                    PatternLf
//! ```

use snorkel_lf::{BoxedLf, KeywordBetweenLf, PatternLf, Vote};

use crate::verbs::Verb;

/// A parsed, wire-expressible labeling-function definition. Its
/// [`content tag`](LfSpec::content_tag) is derived from the canonical
/// spec text, so re-submitting an identical spec (including reverting an
/// edit) is a full LF-cache hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LfSpec {
    /// [`KeywordBetweenLf`]: keyword among the tokens between the two
    /// argument spans, direction-sensitive labels.
    Keyword {
        /// LF name.
        name: String,
        /// Keywords (lowercased, matched case-insensitively).
        keywords: Vec<String>,
        /// Vote when span 0 precedes span 1.
        label_forward: Vote,
        /// Vote when span 1 precedes span 0.
        label_reverse: Vote,
    },
    /// [`PatternLf`]: slot-template pattern over the sentence text.
    Pattern {
        /// LF name.
        name: String,
        /// Slot template source (see `snorkel_pattern::SlotTemplate`).
        template: String,
        /// Vote on a match.
        label: Vote,
    },
}

impl LfSpec {
    /// The LF's name.
    pub fn name(&self) -> &str {
        match self {
            LfSpec::Keyword { name, .. } | LfSpec::Pattern { name, .. } => name,
        }
    }

    /// Parse the `<lf-spec>` grammar (everything after `REFRESH ADD`
    /// or `REFRESH EDIT`).
    pub fn parse(spec: &str) -> Result<LfSpec, String> {
        let mut tokens = spec.split_whitespace();
        let name = tokens.next().ok_or("missing LF name")?.to_string();
        let kind = tokens.next().ok_or("missing LF kind")?;
        match kind {
            "KEYWORD" => {
                let fwd = parse_vote(tokens.next().ok_or("missing forward label")?)?;
                let rev = parse_vote(tokens.next().ok_or("missing reverse label")?)?;
                let kws = tokens.next().ok_or("missing keyword list")?;
                if tokens.next().is_some() {
                    return Err("trailing tokens after keyword list".into());
                }
                let keywords: Vec<String> = kws
                    .split(',')
                    .filter(|k| !k.is_empty())
                    .map(|k| k.to_lowercase())
                    .collect();
                if keywords.is_empty() {
                    return Err("empty keyword list".into());
                }
                Ok(LfSpec::Keyword {
                    name,
                    keywords,
                    label_forward: fwd,
                    label_reverse: rev,
                })
            }
            "PATTERN" => {
                let label = parse_vote(tokens.next().ok_or("missing label")?)?;
                let template: Vec<&str> = tokens.collect();
                if template.is_empty() {
                    return Err("missing pattern template".into());
                }
                Ok(LfSpec::Pattern {
                    name,
                    template: template.join(" "),
                    label,
                })
            }
            other => Err(format!("unknown LF kind {other:?} (KEYWORD | PATTERN)")),
        }
    }

    /// Canonical spec text — what [`Self::content_tag`] hashes and what
    /// `STATS` echoes back.
    pub fn canonical(&self) -> String {
        match self {
            LfSpec::Keyword {
                name,
                keywords,
                label_forward,
                label_reverse,
            } => format!(
                "{name} KEYWORD {label_forward} {label_reverse} {}",
                keywords.join(",")
            ),
            LfSpec::Pattern {
                name,
                template,
                label,
            } => format!("{name} PATTERN {label} {template}"),
        }
    }

    /// Content tag for the session cache: identical specs (including a
    /// revert to an earlier spec) reproduce the same fingerprint, so
    /// nothing is re-executed.
    pub fn content_tag(&self) -> u64 {
        snorkel_incr::Fingerprint::content_tag(self.canonical())
    }

    /// Construct the labeling function this spec describes.
    pub fn build(&self) -> Result<BoxedLf, String> {
        match self {
            LfSpec::Keyword {
                name,
                keywords,
                label_forward,
                label_reverse,
            } => {
                let refs: Vec<&str> = keywords.iter().map(String::as_str).collect();
                Ok(Box::new(KeywordBetweenLf::new(
                    name.clone(),
                    &refs,
                    *label_forward,
                    *label_reverse,
                )))
            }
            LfSpec::Pattern {
                name,
                template,
                label,
            } => PatternLf::new(name.clone(), template, *label)
                .map(|lf| Box::new(lf) as BoxedLf)
                .map_err(|e| format!("bad pattern template: {e}")),
        }
    }
}

/// A suite mutation carried by `REFRESH`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SuiteEdit {
    /// `REFRESH ADD <lf-spec>`.
    Add(LfSpec),
    /// `REFRESH EDIT <lf-spec>`.
    Edit(LfSpec),
    /// `REFRESH REMOVE <name>`.
    Remove(String),
}

/// One parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Posterior for one sparse vote row, `(cols, votes)` sorted by
    /// column.
    Marginal {
        /// Voting LF columns, strictly increasing.
        cols: Vec<u32>,
        /// Votes parallel to `cols` (non-abstain).
        votes: Vec<Vote>,
    },
    /// Run the live suite on a transient two-span candidate.
    Apply {
        /// Token range `[start, end)` of span 0.
        span1: (usize, usize),
        /// Token range `[start, end)` of span 1.
        span2: (usize, usize),
        /// Sentence text (tokenized server-side).
        text: String,
    },
    /// Distilled-model posterior for raw feature strings (hashed
    /// server-side) — answers for candidates with zero LF coverage.
    Predict {
        /// Feature names, e.g. `btw=causes` (at least one).
        features: Vec<String>,
    },
    /// Featurize a transient two-span candidate and answer from the
    /// distilled model (same span grammar as [`Request::Apply`]).
    PredictText {
        /// Token range `[start, end)` of span 0.
        span1: (usize, usize),
        /// Token range `[start, end)` of span 1.
        span2: (usize, usize),
        /// Sentence text (tokenized server-side).
        text: String,
    },
    /// Append candidates to the corpus and absorb them through the
    /// streaming plane (online moment update, no cold fit). The text
    /// verb carries a batch of one; the binary `OP_INGEST` frame
    /// carries many rows in the same shape.
    Ingest {
        /// Candidate rows: two token-range spans plus the sentence
        /// text, the same grammar as [`Request::Apply`].
        rows: Vec<crate::frame::IngestRow>,
    },
    /// Re-label, optionally after a suite edit.
    Refresh(Option<SuiteEdit>),
    /// Write a snapshot, to the given path or the server's configured
    /// one.
    Snapshot {
        /// Optional explicit target path.
        path: Option<String>,
    },
    /// Counters and suite layout.
    Stats,
    /// Prometheus-text metrics exposition (multi-line reply).
    Metrics,
    /// The `n` slowest recent requests from the trace ring (multi-line
    /// reply).
    Slowlog {
        /// Maximum entries to return.
        n: usize,
    },
    /// Seal the replication log and flip this follower to leader
    /// (replicated servers only; see `docs/REPLICATION.md`).
    Promote,
    /// Graceful stop.
    Shutdown,
}

impl Request {
    /// The wire verb this request arrived as — the `verb` label of the
    /// serving layer's per-verb metrics.
    pub fn verb(&self) -> &'static str {
        self.id().row().name
    }

    /// This request's row in the verb table.
    pub(crate) fn id(&self) -> Verb {
        match self {
            Request::Ping => Verb::Ping,
            Request::Marginal { .. } => Verb::Marginal,
            Request::Apply { .. } => Verb::Apply,
            Request::Predict { .. } => Verb::Predict,
            Request::PredictText { .. } => Verb::PredictText,
            Request::Ingest { .. } => Verb::Ingest,
            Request::Refresh(_) => Verb::Refresh,
            Request::Snapshot { .. } => Verb::Snapshot,
            Request::Stats => Verb::Stats,
            Request::Metrics => Verb::Metrics,
            Request::Slowlog { .. } => Verb::Slowlog,
            Request::Promote => Verb::Promote,
            Request::Shutdown => Verb::Shutdown,
        }
    }
}

/// Shared grammar of `APPLY` and `PREDICT_TEXT`: two token-range spans
/// followed by the sentence text.
#[allow(clippy::type_complexity)]
fn parse_spans_and_text(
    verb: &str,
    rest: &str,
) -> Result<((usize, usize), (usize, usize), String), String> {
    let mut tokens = rest.splitn(5, char::is_whitespace);
    let mut bound = |what: &'static str| -> Result<usize, String> {
        tokens
            .next()
            .ok_or_else(|| format!("{verb} missing {what}"))?
            .parse()
            .map_err(|_| format!("{verb}: bad {what}"))
    };
    let s1 = (bound("span1 start")?, bound("span1 end")?);
    let s2 = (bound("span2 start")?, bound("span2 end")?);
    let text = tokens.next().unwrap_or("").trim().to_string();
    if text.is_empty() {
        return Err(format!("{verb} missing sentence text"));
    }
    Ok((s1, s2, text))
}

fn parse_vote(s: &str) -> Result<Vote, String> {
    let v: i8 = s.parse().map_err(|_| format!("bad vote {s:?}"))?;
    if v == 0 {
        return Err("votes in requests must be non-abstain".into());
    }
    Ok(v)
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (cmd, rest) = match line.split_once(char::is_whitespace) {
        Some((c, r)) => (c, r.trim()),
        None => (line, ""),
    };
    // The keyword set is the verb table's text rows.
    match Verb::from_keyword(cmd) {
        Some(Verb::Ping) => Ok(Request::Ping),
        Some(Verb::Marginal) => {
            if rest.is_empty() {
                return Err("MARGINAL needs a vote list".into());
            }
            let mut cols = Vec::new();
            let mut votes = Vec::new();
            for item in rest.split(',') {
                let (c, v) = item
                    .split_once(':')
                    .ok_or_else(|| format!("bad vote entry {item:?} (want col:vote)"))?;
                let col: u32 = c.parse().map_err(|_| format!("bad column {c:?}"))?;
                if cols.last().is_some_and(|&prev| prev >= col) {
                    return Err("columns must be strictly increasing".into());
                }
                cols.push(col);
                votes.push(parse_vote(v)?);
            }
            Ok(Request::Marginal { cols, votes })
        }
        Some(Verb::Apply) => {
            let (span1, span2, text) = parse_spans_and_text(cmd, rest)?;
            Ok(Request::Apply { span1, span2, text })
        }
        Some(Verb::Predict) => {
            let features: Vec<String> = rest.split_whitespace().map(str::to_string).collect();
            if features.is_empty() {
                return Err("PREDICT needs at least one feature".into());
            }
            Ok(Request::Predict { features })
        }
        Some(Verb::PredictText) => {
            let (span1, span2, text) = parse_spans_and_text(cmd, rest)?;
            Ok(Request::PredictText { span1, span2, text })
        }
        Some(Verb::Ingest) => {
            let (span1, span2, text) = parse_spans_and_text(cmd, rest)?;
            Ok(Request::Ingest {
                rows: vec![(span1, span2, text)],
            })
        }
        Some(Verb::Refresh) => {
            if rest.is_empty() {
                return Ok(Request::Refresh(None));
            }
            let (op, spec) = match rest.split_once(char::is_whitespace) {
                Some((o, s)) => (o, s.trim()),
                None => (rest, ""),
            };
            let edit = match op {
                "ADD" => SuiteEdit::Add(LfSpec::parse(spec)?),
                "EDIT" => SuiteEdit::Edit(LfSpec::parse(spec)?),
                "REMOVE" => {
                    if spec.is_empty() || spec.contains(char::is_whitespace) {
                        return Err("REFRESH REMOVE takes exactly one LF name".into());
                    }
                    SuiteEdit::Remove(spec.to_string())
                }
                other => return Err(format!("unknown REFRESH op {other:?}")),
            };
            Ok(Request::Refresh(Some(edit)))
        }
        Some(Verb::Snapshot) => Ok(Request::Snapshot {
            path: (!rest.is_empty()).then(|| rest.to_string()),
        }),
        Some(Verb::Stats) => Ok(Request::Stats),
        Some(Verb::Metrics) => Ok(Request::Metrics),
        Some(Verb::Slowlog) => {
            if rest.is_empty() {
                return Err("SLOWLOG takes an entry count".into());
            }
            let n: usize = rest
                .parse()
                .map_err(|_| format!("bad SLOWLOG count {rest:?}"))?;
            if n == 0 {
                return Err("SLOWLOG count must be positive".into());
            }
            Ok(Request::Slowlog { n })
        }
        Some(Verb::Promote) => Ok(Request::Promote),
        Some(Verb::Shutdown) => Ok(Request::Shutdown),
        _ => Err(format!("unknown command {cmd:?}")),
    }
}

/// Format a probability row for a response: space-free, comma-separated,
/// shortest-round-trip floats (exact to the bit when parsed back).
pub fn format_probs(p: &[f64]) -> String {
    let strs: Vec<String> = p.iter().map(|x| x.to_string()).collect();
    strs.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_marginal() {
        assert_eq!(
            parse_request("MARGINAL 0:1,3:-1").unwrap(),
            Request::Marginal {
                cols: vec![0, 3],
                votes: vec![1, -1],
            }
        );
        assert!(parse_request("MARGINAL").is_err());
        assert!(parse_request("MARGINAL 3:1,0:-1").is_err(), "unsorted");
        assert!(parse_request("MARGINAL 0:0").is_err(), "abstain vote");
        assert!(parse_request("MARGINAL 0=1").is_err());
    }

    #[test]
    fn parses_apply() {
        let req = parse_request("APPLY 0 1 2 3 magnesium causes weakness").unwrap();
        assert_eq!(
            req,
            Request::Apply {
                span1: (0, 1),
                span2: (2, 3),
                text: "magnesium causes weakness".into(),
            }
        );
        assert!(parse_request("APPLY 0 1 2 3").is_err(), "no text");
        assert!(parse_request("APPLY 0 1 x 3 text").is_err());
    }

    #[test]
    fn parses_predict() {
        assert_eq!(
            parse_request("PREDICT btw=causes u=magnesium").unwrap(),
            Request::Predict {
                features: vec!["btw=causes".into(), "u=magnesium".into()],
            }
        );
        assert!(parse_request("PREDICT").is_err(), "no features");
        assert!(parse_request("PREDICT   ").is_err(), "whitespace only");
    }

    #[test]
    fn parses_predict_text() {
        let req = parse_request("PREDICT_TEXT 0 1 2 3 magnesium causes weakness").unwrap();
        assert_eq!(
            req,
            Request::PredictText {
                span1: (0, 1),
                span2: (2, 3),
                text: "magnesium causes weakness".into(),
            }
        );
        assert!(parse_request("PREDICT_TEXT 0 1 2 3").is_err(), "no text");
        assert!(parse_request("PREDICT_TEXT 0 x 2 3 text").is_err());
    }

    #[test]
    fn parses_ingest() {
        let req = parse_request("INGEST 0 1 2 3 magnesium causes weakness").unwrap();
        assert_eq!(
            req,
            Request::Ingest {
                rows: vec![((0, 1), (2, 3), "magnesium causes weakness".into())],
            }
        );
        assert!(parse_request("INGEST 0 1 2 3").is_err(), "no text");
        assert!(parse_request("INGEST 0 1 x 3 text").is_err());
    }

    #[test]
    fn parses_refresh_grammar() {
        assert_eq!(parse_request("REFRESH").unwrap(), Request::Refresh(None));
        let req = parse_request("REFRESH ADD lf_causes KEYWORD 1 -1 causes,caused").unwrap();
        match req {
            Request::Refresh(Some(SuiteEdit::Add(LfSpec::Keyword {
                name,
                keywords,
                label_forward,
                label_reverse,
            }))) => {
                assert_eq!(name, "lf_causes");
                assert_eq!(keywords, vec!["causes", "caused"]);
                assert_eq!((label_forward, label_reverse), (1, -1));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        let req = parse_request(r"REFRESH EDIT lf_pat PATTERN 1 {{0}}.*\Wcauses\W.*{{1}}").unwrap();
        assert!(matches!(
            req,
            Request::Refresh(Some(SuiteEdit::Edit(LfSpec::Pattern { .. })))
        ));
        assert_eq!(
            parse_request("REFRESH REMOVE lf_x").unwrap(),
            Request::Refresh(Some(SuiteEdit::Remove("lf_x".into())))
        );
        assert!(parse_request("REFRESH DROP lf_x").is_err());
        assert!(parse_request("REFRESH REMOVE a b").is_err());
    }

    #[test]
    fn parses_metrics_and_slowlog() {
        assert_eq!(parse_request("METRICS").unwrap(), Request::Metrics);
        assert_eq!(
            parse_request("SLOWLOG 10").unwrap(),
            Request::Slowlog { n: 10 }
        );
        assert!(parse_request("SLOWLOG").is_err(), "count required");
        assert!(parse_request("SLOWLOG 0").is_err(), "zero count");
        assert!(parse_request("SLOWLOG ten").is_err());
    }

    #[test]
    fn every_request_names_its_verb() {
        for (line, verb) in [
            ("PING", "PING"),
            ("MARGINAL 0:1", "MARGINAL"),
            ("STATS", "STATS"),
            ("METRICS", "METRICS"),
            ("SLOWLOG 5", "SLOWLOG"),
            ("INGEST 0 1 2 3 t", "INGEST"),
            ("REFRESH", "REFRESH"),
            ("PROMOTE", "PROMOTE"),
            ("SHUTDOWN", "SHUTDOWN"),
        ] {
            assert_eq!(parse_request(line).unwrap().verb(), verb);
        }
    }

    #[test]
    fn spec_content_tag_is_content_derived() {
        let a = LfSpec::parse("lf KEYWORD 1 -1 causes").unwrap();
        let b = LfSpec::parse("lf KEYWORD 1 -1 treats").unwrap();
        let a2 = LfSpec::parse("lf  KEYWORD  1  -1  causes").unwrap();
        assert_ne!(a.content_tag(), b.content_tag());
        assert_eq!(a.content_tag(), a2.content_tag(), "whitespace-insensitive");
    }

    #[test]
    fn specs_build_working_lfs() {
        let spec = LfSpec::parse("lf_causes KEYWORD 1 -1 causes").unwrap();
        let lf = spec.build().unwrap();
        assert_eq!(lf.name(), "lf_causes");
        assert!(LfSpec::parse("lf_bad PATTERN 1 {{0}}[unclosed")
            .unwrap()
            .build()
            .is_err());
    }

    #[test]
    fn probs_round_trip_exactly() {
        let p = [0.1f64, 2.0 / 3.0, 4.847695589897749e-11];
        let s = format_probs(&p);
        let back: Vec<f64> = s.split(',').map(|x| x.parse().unwrap()).collect();
        assert_eq!(back, p);
    }
}
