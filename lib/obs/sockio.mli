(** Socket plumbing shared by the serving front-end ({!Srv}), its
    client ({!Srv_client}) and the introspection endpoint ({!Monitor}):
    one partial-write loop and one buffered line reader. *)

val write_all : Unix.file_descr -> string -> bool
(** Write the whole string, looping over partial writes.  [false] when
    the socket fails (peer gone, send timeout). *)

val ignore_sigpipe : unit -> unit
(** Ignore [SIGPIPE] process-wide, so a write to a peer that hung up
    fails with [EPIPE] (and {!write_all} returns [false]) instead of
    killing the process.  Idempotent. *)

val max_line : int
(** The line bound both ends of the serving protocol enforce: 64 KiB,
    a trailing [\r] included. *)

type reader
(** A buffered reader over one socket.  It keeps a single reusable
    buffer (grown only for lines longer than it, up to the bound) and
    a scan position, and compacts only when it refills, so reading a
    line allocates nothing beyond the returned string. *)

val reader : Unix.file_descr -> reader

val read_line : ?on_timeout:(unit -> bool) -> reader -> string option
(** The next line, its [\n] (and a [\r] before it) stripped.  [None]
    at end of stream, on a read error, on a line longer than the bound
    (after which every later call is [None] too), and on a receive
    timeout ([SO_RCVTIMEO]) unless [on_timeout ()] says to keep waiting
    (default: give up).  Bytes after the last newline at end of stream
    are not a line. *)

val read_upto : ?on_timeout:(unit -> bool) -> reader -> int -> string
(** Up to [n] bytes, buffered ones first; fewer only when the stream
    ends or fails first, as for {!read_line}. *)
