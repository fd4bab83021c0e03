(** A minimal line-protocol client for the serving front-end ({!Srv}),
    used by the load generator and the tests.

    One connection; strictly pipelined: {!query} sends one line and
    reads result rows until the [# status=...] trailer. *)

exception Disconnected
(** The server hung up (or a read/write failed). *)

type t

type status =
  | Ok
  | Deadline  (** budget exceeded; [rows] holds the partial result *)
  | Busy of int  (** shed at admission; retry after the given ms *)
  | Error of string

type reply = { rows : string list; status : status; wall_us : int }

val connect : ?host:string -> ?timeout_s:float -> port:int -> unit -> t
(** [host] defaults to loopback, [timeout_s] (default 10) bounds each
    socket read/write.  The socket sets [TCP_NODELAY], and [SIGPIPE] is
    ignored ({!Sockio.ignore_sigpipe}) so a server hang-up surfaces as
    {!Disconnected}.
    @raise Unix.Unix_error when nothing listens. *)

val query : t -> string -> reply
(** Send one query line, collect its rows (DNs) and trailer.
    @raise Disconnected on connection loss, a read timeout, or a line
    longer than {!Sockio.max_line}. *)

val ping : t -> bool
val set_deadline_ms : t -> int -> bool

val close : t -> unit
(** Send [QUIT] (best-effort) and close the socket. *)
