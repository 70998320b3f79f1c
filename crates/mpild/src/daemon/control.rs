//! The daemon's inbox and the control planes that deliver into it:
//! loopback UDP behind a reader thread, and an in-process channel pair.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mpil_net::ClientEvent;

use super::IDLE_CAP;

/// One thing for the daemon to react to.
#[derive(Debug)]
pub enum Input<A> {
    /// A request frame from the client at `from`.
    Request {
        /// Where the response goes.
        from: A,
        /// The undecoded frame.
        frame: Vec<u8>,
    },
    /// A store-ack or lookup reply from the cluster.
    Event(ClientEvent),
    /// The control plane will deliver no more requests (its client is
    /// gone, or its socket failed): the daemon drains and exits.
    Closed,
}

/// Both halves of a daemon's inbox.
pub type Inbox<A> = (Sender<Input<A>>, Receiver<Input<A>>);

/// One end of the daemon's admin/data socket. `mpild` ships two: a
/// loopback-UDP implementation for real clients and an in-process
/// channel pair for embedded/smoke use.
///
/// A plane does not hand out requests on demand; it *delivers* them,
/// as [`Input::Request`]s, into the inbox that [`ControlPlane::open`]
/// returns, followed by one [`Input::Closed`] if it can deliver no
/// more. Dropping the plane stops and joins whatever `open` started.
pub trait ControlPlane: Send {
    /// Client address type, echoed back on [`ControlPlane::send`].
    type Addr: Clone + std::fmt::Debug + Send + 'static;

    /// Starts delivering request frames and returns the inbox they are
    /// delivered to. The daemon clones the sending half for its other
    /// sources and sleeps on the receiving half. Called once.
    ///
    /// # Errors
    ///
    /// `std::io::Error` when the plane cannot start (or was opened
    /// before).
    fn open(&mut self) -> std::io::Result<Inbox<Self::Addr>>;

    /// Sends a response frame to `to`.
    ///
    /// # Errors
    ///
    /// `std::io::Error` on socket failure (the daemon counts and
    /// continues — the client may simply be gone).
    fn send(&mut self, to: &Self::Addr, frame: &[u8]) -> std::io::Result<()>;
}

/// Loopback-UDP control plane: one datagram per request/response. Once
/// opened, a reader thread blocks on the socket and forwards every
/// datagram to the inbox.
#[derive(Debug)]
pub struct UdpControl {
    socket: UdpSocket,
    reader: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
}

impl UdpControl {
    /// Binds `127.0.0.1:port` (`port` 0 picks an ephemeral port).
    ///
    /// # Errors
    ///
    /// Socket `bind` failure.
    pub fn bind(port: u16) -> std::io::Result<Self> {
        let socket = UdpSocket::bind(("127.0.0.1", port))?;
        Ok(UdpControl {
            socket,
            reader: None,
        })
    }

    /// The bound address, for clients to connect to.
    ///
    /// # Errors
    ///
    /// `local_addr` failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.socket.local_addr()
    }
}

/// The body of [`UdpControl`]'s reader thread.
fn read_requests(socket: &UdpSocket, stop: &AtomicBool, inbox: &Sender<Input<SocketAddr>>) {
    let mut buf = [0u8; 512];
    loop {
        let received = socket.recv_from(&mut buf);
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let input = match received {
            Ok((len, from)) => Input::Request {
                from,
                frame: buf[..len].to_vec(),
            },
            // The idle cap ran out; `stop` has been looked at.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => Input::Closed,
        };
        let last = matches!(input, Input::Closed);
        if inbox.send(input).is_err() || last {
            return;
        }
    }
}

impl ControlPlane for UdpControl {
    type Addr = SocketAddr;

    fn open(&mut self) -> std::io::Result<Inbox<SocketAddr>> {
        if self.reader.is_some() {
            return Err(already_open());
        }
        let (tx, rx) = channel();
        let socket = self.socket.try_clone()?;
        // Set once and never changed. A wake-up datagram ends the
        // reader's sleep when the plane is dropped; the timeout only
        // bounds the wait should that datagram be lost.
        socket.set_read_timeout(Some(IDLE_CAP))?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = std::thread::Builder::new()
            .name("mpild-ctrl-reader".to_string())
            .spawn({
                let (stop, tx) = (Arc::clone(&stop), tx.clone());
                move || read_requests(&socket, &stop, &tx)
            })?;
        self.reader = Some((stop, handle));
        Ok((tx, rx))
    }

    fn send(&mut self, to: &SocketAddr, frame: &[u8]) -> std::io::Result<()> {
        self.socket.send_to(frame, to).map(|_| ())
    }
}

impl Drop for UdpControl {
    /// Stops and joins the reader, so that the port is free the moment
    /// the plane is gone.
    fn drop(&mut self) {
        if let Some((stop, handle)) = self.reader.take() {
            stop.store(true, Ordering::SeqCst);
            // A datagram to ourselves ends the reader's blocking receive.
            if let Ok(addr) = self.socket.local_addr() {
                let _ = self.socket.send_to(&[], addr);
            }
            let _ = handle.join();
        }
    }
}

/// In-process control plane for embedded daemons (the CI smoke and
/// `mpil-load --embedded`) with a single client. No thread stands
/// between the two: the client's sender *is* a sender of the daemon's
/// inbox.
#[derive(Debug)]
pub struct ChannelControl {
    inbox: Option<Inbox<()>>,
    tx: Sender<Vec<u8>>,
}

/// The client half of a [`ChannelControl`] pair; implements the load
/// generator's connection trait. Dropping it tells the daemon the
/// control plane is closed.
#[derive(Debug)]
pub struct ChannelCtrlClient {
    rx: Receiver<Vec<u8>>,
    tx: Sender<Input<()>>,
}

impl ChannelControl {
    /// A connected (server, client) pair.
    pub fn pair() -> (ChannelControl, ChannelCtrlClient) {
        let (to_daemon, inbox) = channel();
        let (to_client, from_daemon) = channel();
        (
            ChannelControl {
                inbox: Some((to_daemon.clone(), inbox)),
                tx: to_client,
            },
            ChannelCtrlClient {
                rx: from_daemon,
                tx: to_daemon,
            },
        )
    }
}

fn broken_pipe() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::BrokenPipe, "control peer disconnected")
}

fn already_open() -> std::io::Error {
    std::io::Error::other("control plane already opened")
}

impl ControlPlane for ChannelControl {
    type Addr = ();

    fn open(&mut self) -> std::io::Result<Inbox<()>> {
        self.inbox.take().ok_or_else(already_open)
    }

    fn send(&mut self, _to: &(), frame: &[u8]) -> std::io::Result<()> {
        self.tx.send(frame.to_vec()).map_err(|_| broken_pipe())
    }
}

impl ChannelCtrlClient {
    /// Sends a request frame to the embedded daemon.
    ///
    /// # Errors
    ///
    /// `BrokenPipe` when the daemon is gone.
    pub fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.tx
            .send(Input::Request {
                from: (),
                frame: frame.to_vec(),
            })
            .map_err(|_| broken_pipe())
    }

    /// Receives the next response frame, waiting at most `timeout`.
    ///
    /// # Errors
    ///
    /// `BrokenPipe` when the daemon is gone.
    pub fn recv(&mut self, timeout: Duration) -> std::io::Result<Option<Vec<u8>>> {
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(broken_pipe()),
        }
    }
}

impl Drop for ChannelCtrlClient {
    fn drop(&mut self) {
        // The inbox has other senders (the cluster's reader), so the
        // daemon cannot see this one disappear: tell it.
        let _ = self.tx.send(Input::Closed);
    }
}
