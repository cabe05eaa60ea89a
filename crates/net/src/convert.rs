//! Wire ⇄ batch-op conversions: the glue that keeps the protocol from
//! inventing a fourth op vocabulary.
//!
//! `hemlock-minikv` owns the shared batch shapes
//! ([`KvOp`] / [`KvResult`]); this module maps them 1:1 onto the framed
//! [`Request`] / [`Response`] pairs, carrying the protocol's request id
//! alongside. Some wire variants have no KV meaning — a
//! [`Request::Ping`] is connection liveness, [`Request::Stats`] is a
//! metrics snapshot, and a [`Response::Err`] is a transport-level
//! failure — so the wire→KV direction is `TryFrom`, handing the non-KV
//! message back unchanged as the error. The KV→wire direction is total
//! (`From`).
//!
//! The server's burst dispatch is exactly these conversions in a loop:
//! decode a pipeline burst, `try_from` each request (answering pings
//! inline), feed the `KvOp`s to
//! [`AsyncKv::apply_batch_async`](hemlock_minikv::AsyncKv::apply_batch_async)
//! as one unit, and `from` each positional [`KvResult`] back into the
//! response stream.

use crate::proto::{Request, Response};
use hemlock_minikv::{KvOp, KvResult};

impl From<(u64, KvOp)> for Request {
    fn from((id, op): (u64, KvOp)) -> Self {
        match op {
            KvOp::Get(key) => Request::Get { id, key },
            KvOp::Put(key, value) => Request::Put { id, key, value },
            KvOp::Delete(key) => Request::Delete { id, key },
        }
    }
}

impl TryFrom<Request> for (u64, KvOp) {
    /// The non-KV requests ([`Request::Ping`], [`Request::Stats`]),
    /// returned unchanged so the caller can answer them inline.
    type Error = Request;

    fn try_from(req: Request) -> Result<Self, Request> {
        match req {
            Request::Get { id, key } => Ok((id, KvOp::Get(key))),
            Request::Put { id, key, value } => Ok((id, KvOp::Put(key, value))),
            Request::Delete { id, key } => Ok((id, KvOp::Delete(key))),
            other @ (Request::Ping { .. } | Request::Stats { .. } | Request::Trace { .. }) => {
                Err(other)
            }
        }
    }
}

impl From<(u64, KvResult)> for Response {
    fn from((id, res): (u64, KvResult)) -> Self {
        match res {
            KvResult::Value(Some(value)) => Response::Value { id, value },
            KvResult::Value(None) => Response::NotFound { id },
            KvResult::Done => Response::Ok { id },
        }
    }
}

impl TryFrom<Response> for (u64, KvResult) {
    /// The non-KV responses ([`Response::Pong`], [`Response::Err`]),
    /// returned unchanged.
    type Error = Response;

    fn try_from(resp: Response) -> Result<Self, Response> {
        match resp {
            Response::Value { id, value } => Ok((id, KvResult::Value(Some(value)))),
            Response::NotFound { id } => Ok((id, KvResult::Value(None))),
            Response::Ok { id } => Ok((id, KvResult::Done)),
            other => Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_requests_roundtrip_through_the_wire_shape() {
        let cases = vec![
            (7u64, KvOp::Get(b"k".to_vec())),
            (8, KvOp::Put(b"k".to_vec(), b"v".to_vec())),
            (9, KvOp::Delete(b"k".to_vec())),
        ];
        for (id, op) in cases {
            let req = Request::from((id, op.clone()));
            assert_eq!(req.id(), id);
            assert_eq!(<(u64, KvOp)>::try_from(req), Ok((id, op)));
        }
    }

    #[test]
    fn ping_and_stats_are_handed_back_not_converted() {
        for req in [
            Request::Ping { id: 3 },
            Request::Stats { id: 4 },
            Request::Trace { id: 5 },
        ] {
            assert_eq!(<(u64, KvOp)>::try_from(req.clone()), Err(req));
        }
    }

    #[test]
    fn kv_results_roundtrip_through_the_wire_shape() {
        let cases = vec![
            (1u64, KvResult::Value(Some(b"v".to_vec()))),
            (2, KvResult::Value(None)),
            (3, KvResult::Done),
        ];
        for (id, res) in cases {
            let resp = Response::from((id, res.clone()));
            assert_eq!(resp.id(), id);
            assert_eq!(<(u64, KvResult)>::try_from(resp), Ok((id, res)));
        }
    }

    #[test]
    fn pong_and_err_are_handed_back_not_converted() {
        for resp in [
            Response::Pong { id: 4 },
            Response::Err {
                id: 5,
                message: "boom".into(),
            },
            Response::Stats {
                id: 6,
                text: "net.requests 1\n".into(),
            },
        ] {
            assert_eq!(<(u64, KvResult)>::try_from(resp.clone()), Err(resp));
        }
    }
}
