//! One client's view of the search mix: it turns [`Req`]s into calls on
//! a backend (the socket client or the in-process service), holds the
//! paging tokens it was given, times each call and records a digest of
//! each response for the after-run check.

use std::sync::Arc;
use std::time::Instant;

use lpath_server::Client;
use lpath_service::{ResultSet, Service};

use crate::check::{digest_rows, Kind, Record};
use crate::trace::Tracer;
use crate::universe::{Req, PAGE};

/// Rows as a backend returns them; digested after the clock stops.
pub enum Rows {
    /// In-process rows.
    Local(ResultSet),
    /// In-process rows shared with a cache.
    Shared(Arc<ResultSet>),
    /// Rows decoded from the socket.
    Remote(Vec<(u32, u32)>),
}

impl Rows {
    fn digest(&self) -> u64 {
        match self {
            Rows::Local(r) => digest_rows(r.iter().map(|&(t, n)| (t, n.0))),
            Rows::Shared(r) => digest_rows(r.iter().map(|&(t, n)| (t, n.0))),
            Rows::Remote(r) => digest_rows(r.iter().copied()),
        }
    }
}

type Res<T> = Result<T, String>;

/// The calls the search mix makes.
pub trait Backend {
    /// A page of `limit` rows, resuming `token` when given.
    fn page(&mut self, q: &str, token: Option<&str>, limit: usize) -> Res<(Rows, Option<String>)>;
    /// The full result.
    fn eval(&mut self, q: &str) -> Res<Rows>;
    /// The number of matches.
    fn count(&mut self, q: &str) -> Res<u64>;
    /// Whether anything matches.
    fn exists(&mut self, q: &str) -> Res<bool>;
    /// A batch, member results in order.
    fn multi(&mut self, qs: &[&str]) -> Res<Vec<Res<Rows>>>;
    /// Append bracketed trees; returns how many were added.
    fn append(&mut self, src: &str) -> Res<u64>;
    /// Span-name prefix for calls on this backend.
    fn layer(&self) -> &'static str;
}

impl Backend for Client {
    fn page(&mut self, q: &str, token: Option<&str>, limit: usize) -> Res<(Rows, Option<String>)> {
        let p = self.eval_page(q, token, limit).map_err(|e| e.to_string())?;
        Ok((Rows::Remote(p.rows), p.token))
    }
    fn eval(&mut self, q: &str) -> Res<Rows> {
        Client::eval(self, q)
            .map(Rows::Remote)
            .map_err(|e| e.to_string())
    }
    fn count(&mut self, q: &str) -> Res<u64> {
        Client::count(self, q).map_err(|e| e.to_string())
    }
    fn exists(&mut self, q: &str) -> Res<bool> {
        Client::exists(self, q).map_err(|e| e.to_string())
    }
    fn multi(&mut self, qs: &[&str]) -> Res<Vec<Res<Rows>>> {
        let rs = self.eval_multi(qs).map_err(|e| e.to_string())?;
        Ok(rs
            .into_iter()
            .map(|r| r.map(Rows::Remote).map_err(|e| e.to_string()))
            .collect())
    }
    fn append(&mut self, src: &str) -> Res<u64> {
        self.append_ptb(src).map_err(|e| e.to_string())
    }
    fn layer(&self) -> &'static str {
        "client"
    }
}

/// The in-process service as a backend.
pub struct Local<'a>(pub &'a Service);

impl Backend for Local<'_> {
    fn page(&mut self, q: &str, token: Option<&str>, limit: usize) -> Res<(Rows, Option<String>)> {
        let p = self
            .0
            .eval_page_token(q, token, limit)
            .map_err(|e| e.to_string())?;
        Ok((Rows::Local(p.rows), p.token))
    }
    fn eval(&mut self, q: &str) -> Res<Rows> {
        self.0.eval(q).map(Rows::Shared).map_err(|e| e.to_string())
    }
    fn count(&mut self, q: &str) -> Res<u64> {
        self.0.count(q).map(|c| c as u64).map_err(|e| e.to_string())
    }
    fn exists(&mut self, q: &str) -> Res<bool> {
        self.0.exists(q).map_err(|e| e.to_string())
    }
    fn multi(&mut self, qs: &[&str]) -> Res<Vec<Res<Rows>>> {
        Ok(self
            .0
            .eval_multi(qs)
            .into_iter()
            .map(|r| r.map(Rows::Shared).map_err(|e| e.to_string()))
            .collect())
    }
    fn append(&mut self, src: &str) -> Res<u64> {
        self.0
            .append_ptb(src)
            .map(|n| n as u64)
            .map_err(|e| e.to_string())
    }
    fn layer(&self) -> &'static str {
        "service"
    }
}

/// The request classes latencies are kept for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// First page.
    Page,
    /// Token-driven deeper page.
    Deeper,
    /// `count`.
    Count,
    /// Full `eval`.
    Eval,
    /// `exists`.
    Exists,
    /// `eval_multi` batch.
    Multi,
}

impl Class {
    /// The span name of this class's call on a `client` or `service`
    /// backend.
    pub fn span(self, layer: &str) -> &'static str {
        let client = layer == "client";
        match self {
            Class::Page if client => "client.page",
            Class::Deeper if client => "client.deeper",
            Class::Count if client => "client.count",
            Class::Eval if client => "client.eval",
            Class::Exists if client => "client.exists",
            Class::Multi if client => "client.eval_multi",
            Class::Page => "service.page",
            Class::Deeper => "service.deeper",
            Class::Count => "service.count",
            Class::Eval => "service.eval",
            Class::Exists => "service.exists",
            Class::Multi => "service.eval_multi",
        }
    }
}

/// One executed request.
pub struct Done {
    /// Its class.
    pub class: Class,
    /// The query, for single-query classes.
    pub query: Option<usize>,
    /// Wall time of the call (span bookkeeping included when traced).
    pub us: f64,
    /// Whether the call failed outright.
    pub failed: bool,
}

/// Tokens held at most; the oldest is dropped beyond this.
const POOL: usize = 32;

/// A client session: held tokens plus the response log.
#[derive(Default)]
pub struct Session {
    pool: Vec<(usize, usize, String)>,
    /// Digests of every response, for [`crate::check::verify`].
    pub records: Vec<Record>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed outright.
    pub failed: u64,
}

impl Session {
    fn hold(&mut self, q: usize, offset: usize, token: Option<String>) {
        if let Some(t) = token {
            if self.pool.len() >= POOL {
                self.pool.remove(0);
            }
            self.pool.push((q, offset, t));
        }
    }

    fn note_error(&mut self, what: &str, e: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("request failed: {what}: {e}");
        }
    }

    /// Execute `req` on `b`. `trace` wraps the call in a `request` span
    /// with the backend call as child.
    pub fn exec<B: Backend>(
        &mut self,
        b: &mut B,
        queries: &[String],
        req: &Req,
        trace: Option<(&mut Tracer, u64)>,
    ) -> Done {
        // Resolve what to send before the clock starts.
        let (class, held) = match *req {
            Req::Deeper(_, fallback) if self.pool.is_empty() => {
                (Class::Page, Some((fallback, 0, None)))
            }
            Req::Deeper(pick, _) => {
                let (q, off, t) = self
                    .pool
                    .swap_remove((pick % self.pool.len() as u64) as usize);
                (Class::Deeper, Some((q, off, Some(t))))
            }
            Req::Page(q) => (Class::Page, Some((q, 0, None))),
            Req::Count(_) => (Class::Count, None),
            Req::Eval(_) => (Class::Eval, None),
            Req::Exists(_) => (Class::Exists, None),
            Req::Multi(_) => (Class::Multi, None),
        };
        let start = Instant::now();
        let spans = trace.map(|(t, id)| {
            let root = t.open("request", id, None);
            let child = t.open(class.span(b.layer()), id, Some(root));
            (t, root, child)
        });
        enum Reply {
            Page(Res<(Rows, Option<String>)>),
            Rows(Res<Rows>),
            Count(Res<u64>),
            Exists(Res<bool>),
            Multi(Res<Vec<Res<Rows>>>),
        }
        let reply = match (req, &held) {
            (_, Some((q, _, token))) => Reply::Page(b.page(&queries[*q], token.as_deref(), PAGE)),
            (Req::Count(q), _) => Reply::Count(b.count(&queries[*q])),
            (Req::Eval(q), _) => Reply::Rows(b.eval(&queries[*q])),
            (Req::Exists(q), _) => Reply::Exists(b.exists(&queries[*q])),
            (Req::Multi(qs), _) => {
                let strs: Vec<&str> = qs.iter().map(|&q| queries[q].as_str()).collect();
                Reply::Multi(b.multi(&strs))
            }
            _ => unreachable!("pages carry their query"),
        };
        if let Some((t, root, child)) = spans {
            t.close(child);
            t.close(root);
        }
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.attempted += 1;
        let mut recs = Vec::new();
        let mut log = |query: usize, kind: Kind, digest: u64| {
            recs.push(Record {
                query,
                kind,
                digest,
            });
        };
        let mut query = None;
        let mut error = None;
        match reply {
            Reply::Page(r) => {
                let (q, offset, _) = held.expect("pages carry their query");
                query = Some(q);
                match r {
                    Ok((rows, token)) => {
                        log(
                            q,
                            Kind::Slice {
                                offset,
                                limit: PAGE,
                            },
                            rows.digest(),
                        );
                        self.hold(q, offset + PAGE, token);
                    }
                    Err(e) => error = Some(e),
                }
            }
            Reply::Rows(r) => {
                let q = single(req);
                query = Some(q);
                match r {
                    Ok(rows) => log(
                        q,
                        Kind::Slice {
                            offset: 0,
                            limit: usize::MAX,
                        },
                        rows.digest(),
                    ),
                    Err(e) => error = Some(e),
                }
            }
            Reply::Count(r) => {
                let q = single(req);
                query = Some(q);
                match r {
                    Ok(n) => log(q, Kind::Count, n),
                    Err(e) => error = Some(e),
                }
            }
            Reply::Exists(r) => {
                let q = single(req);
                query = Some(q);
                match r {
                    Ok(x) => log(q, Kind::Exists, u64::from(x)),
                    Err(e) => error = Some(e),
                }
            }
            Reply::Multi(r) => match r {
                Ok(members) => {
                    let Req::Multi(qs) = req else { unreachable!() };
                    for (&q, m) in qs.iter().zip(members) {
                        match m {
                            Ok(rows) => {
                                log(
                                    q,
                                    Kind::Slice {
                                        offset: 0,
                                        limit: usize::MAX,
                                    },
                                    rows.digest(),
                                );
                            }
                            Err(e) => error = Some(e),
                        }
                    }
                }
                Err(e) => error = Some(e),
            },
        }
        self.records.extend(recs);
        let failed = error.is_some();
        if let Some(e) = error {
            self.note_error(&format!("{class:?} {query:?}"), &e);
        }
        Done {
            class,
            query,
            us,
            failed,
        }
    }
}

fn single(req: &Req) -> usize {
    match *req {
        Req::Count(q) | Req::Eval(q) | Req::Exists(q) | Req::Page(q) | Req::Deeper(_, q) => q,
        Req::Multi(_) => unreachable!("batches have no single query"),
    }
}
