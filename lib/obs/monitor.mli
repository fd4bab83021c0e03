(** The live introspection server: a dependency-free HTTP endpoint over
    [Unix] sockets, serving the observability surface while the process
    runs.

    Built-in routes: [/] (index), [/metrics] (OpenMetrics exposition
    of the registry, histogram exemplars included), [/healthz]
    (liveness JSON: uptime, request count, live sessions, journal sink
    size and rotation limits, firing-alert count, and a {!front}'s
    fields), [/alerts] (the default
    {!Alerts} evaluator's rules, states and transition history as
    JSON), [/slowlog] (slow-query captures as JSON lines, each
    annotated with whether its trace is tail-retained), [/trace]
    (recent trace summaries), [/trace/<sel>] (one trace as Chrome
    trace-event JSON; [sel] is an index into the recent ring, a trace
    id — tail-retained ids resolve too — or [last]), [/tail] (the
    {!Tail} sampler's retained traces), [/range] (a {!Tsdb} range
    query: [?metric=NAME&agg=p99&window=300&step=2], extra params act
    as label matchers), [/dashboard] (the self-contained live HTML
    dashboard), [/planstats] (the default {!Planstats} store's q-error
    summaries + calibration) and [/workload] (its top plans by wall
    time).  Layers above [lib/obs] add their own routes (the shell
    registers [/cache]) with {!add_handler}.

    The endpoint observes itself:
    [monitor_requests_total{route,status}] counters and a
    [monitor_request_ns{route}] histogram (routes truncated to their
    first path segment; requests no route answered share [(other)]),
    plus a [monitor_open_connections] gauge of live connections.

    This is the process's one HTTP listener.  Each connection gets a
    session thread (tracked so {!stop} can end and join them all) with
    [TCP_NODELAY], a 5 s send deadline and reads that poll for
    {!stop}.  The request line, a header block of at most 16 KiB and a
    body of at most 1 MiB ([Content-Length]; longer is a [413]) must
    arrive within 2 s of the request line, or the session ends.  [GET]
    and [HEAD] are served (HEAD returns the GET response's headers —
    [Content-Length] included — with the body withheld); every other
    method gets a [405], and every response, errors included, carries
    [Content-Length].  Handlers run on the session threads, possibly
    concurrently.  Monitoring is opt-in: nothing listens until
    {!start}. *)

type t

type response = { status : int; content_type : string; body : string }

val respond : ?status:int -> ?content_type:string -> string -> response
(** [status] defaults to 200, [content_type] to [text/plain]. *)

(** The serving front-end ([Srv] in [lib/srv]) mounted on a listener. *)
type front = {
  query :
    Unix.file_descr ->
    meth:string ->
    params:(string * string) list ->
    body:string ->
    unit;
      (** Every request for [/query], any method, with its url-decoded
          parameters and body: writes the whole (streamed) reply to the
          socket and accounts for it itself. *)
  lines : Unix.file_descr -> Sockio.reader -> string -> unit;
      (** A connection whose first line (the argument) is not an HTTP
          request line: the line protocol, which reads on from the
          reader.  Such a client may idle before its first line. *)
  health : unit -> (string * Json.t) list;
      (** Extra [/healthz] fields. *)
}

val start : ?registry:Metrics.t -> ?front:front -> port:int -> unit -> t
(** Bind the loopback interface on [port] (0 picks a free port — see
    {!port}) and start serving.  [registry] defaults to
    {!Metrics.default}.  With a [front], [/] also lists [/query] and the
    line protocol, and the connection gauge is [srv_sessions] in place
    of [monitor_open_connections].  [SIGPIPE] is ignored from here on
    ({!Sockio.ignore_sigpipe}).
    @raise Unix.Unix_error when the port is taken. *)

val port : t -> int
(** The bound port (useful after [start ~port:0]). *)

val session_count : t -> int
(** Live connections right now. *)

val stop : t -> unit
(** Stop accepting, end every session (shutting its socket down) and
    join its thread, close the listening socket.  Idempotent. *)

val add_handler : t -> string -> (string -> response option) -> unit
(** [add_handler t name fn] consults [fn] with each request target
    (query string included — {!split_target} parses it) before the
    built-in routes; [None] falls through.  [name] only labels the
    handler. *)

val split_target : string -> string * (string * string) list
(** [split_target "/p?a=1&b=x%20y"] is [("/p", [("a","1"); ("b","x y")])]:
    the path and the url-decoded query parameters in order. *)

val get : ?host:string -> port:int -> string -> int * string
(** A minimal loopback HTTP client: GET the path and return
    [(status, body)].  Used by the bench harness to scrape its own
    [/metrics] mid-run, and by the tests.
    @raise Unix.Unix_error when nothing listens. *)

val request :
  ?host:string ->
  ?meth:string ->
  ?body:string ->
  port:int ->
  string ->
  int * (string * string) list * string
(** Like {!get} but with a chosen method, an optional request [body]
    (sent with its [Content-Length] — the serving front-end's
    [POST /query]) and the response headers (names lowercased) — what
    the HEAD/Content-Length tests and [curl -I]-style checks need.
    [meth] defaults to ["GET"].
    @raise Unix.Unix_error when nothing listens. *)

(** {1 HTTP plumbing for the serving front-end}

    A {!front}'s [query] writes its own replies with these. *)

val http_head :
  ?content_type:string ->
  ?headers:(string * string) list ->
  ?content_length:int ->
  int ->
  string
(** The status line and header block (terminated by the blank line) for
    a [Connection: close] response.  Omitting [content_length] yields a
    streamed, EOF-delimited response head. *)

val write_response : Unix.file_descr -> head_only:bool -> response -> unit
(** Write a complete (head + body) response; [head_only] withholds the
    body (HEAD).  Write errors are swallowed — the peer hanging up
    mid-response is its own problem. *)
