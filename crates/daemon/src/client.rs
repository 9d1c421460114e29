//! A synchronous client for the oregamid wire protocol, used by the
//! CLI's `--socket` mode, the storm bench, and the integration tests.

use crate::json::Json;
use crate::request::Reply;
use crate::wire::{self, WireError};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// One connection to a running daemon. Requests are synchronous: each
/// [`Client::call`] writes one frame and blocks for one response frame
/// (responses to a single connection's sequential requests come back in
/// order).
pub struct Client {
    stream: UnixStream,
    next_id: u64,
}

impl Client {
    pub fn connect(socket: &Path) -> Result<Client, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("cannot connect to {}: {e}", socket.display()))?;
        Ok(Client { stream, next_id: 0 })
    }

    /// Bounds how long a single call may block on the daemon.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> Result<(), String> {
        self.stream
            .set_read_timeout(timeout)
            .map_err(|e| format!("cannot set timeout: {e}"))
    }

    /// Sends `request` (stamping a fresh `id` unless it already carries
    /// one) and returns the matching response object.
    pub fn call(&mut self, request: &Json) -> Result<Json, WireError> {
        let stamped = match request {
            Json::Obj(fields) if request.get("id").is_none() => {
                self.next_id += 1;
                let mut f = fields.clone();
                f.insert(0, ("id".to_string(), Json::from(self.next_id)));
                Json::Obj(f)
            }
            other => other.clone(),
        };
        wire::write_message(&mut self.stream, &stamped)?;
        wire::read_message(&mut self.stream)
    }

    /// [`Client::call`], unwrapping the response envelope: `Ok(result)`
    /// on success, `Err((kind, message))` on a typed daemon error, and
    /// transport failures folded into kind `io`.
    pub fn request(&mut self, request: &Json) -> Reply {
        let response = self
            .call(request)
            .map_err(|e| (e.kind().to_string(), e.to_string()))?;
        if response.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(response.get("result").cloned().unwrap_or(Json::Null))
        } else {
            let kind = response
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str)
                .unwrap_or("internal")
                .to_string();
            let message = response
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap_or("malformed error response")
                .to_string();
            Err((kind, message))
        }
    }
}
