(* The live introspection server and the process's one HTTP listener:
   a dependency-free HTTP/1.1 endpoint over Unix sockets serving the
   observability surface while the process runs — Prometheus-style
   scraping instead of post-hoc files.

   Each connection gets a session thread, tracked in a table so [stop]
   can end and join them all.  Handlers read shared observability
   state that the query threads write concurrently anyway; a scrape
   sees a consistent-enough snapshot for monitoring purposes.
   Built-in routes:

     /           plain-text index of the routes
     /metrics    OpenMetrics exposition of the registry (with exemplars)
     /healthz    {"status":"ok", uptime, served request count, sessions}
     /slowlog    the slow-query captures, JSON lines (newest threshold)
     /trace      summaries of the recent-trace ring, JSON
     /trace/<n>  the n-th recent trace (0 = newest; or a trace id —
                 including tail-retained ones — or "last") as Chrome
                 trace-event JSON
     /tail       the tail sampler's retained traces, JSON
     /range      flight-recorder range query (?metric=&agg=&window=&step=)
     /dashboard  self-contained live HTML dashboard

   Extra handlers (e.g. /cache, whose stats live above this layer)
   register with [add_handler]; they receive the full request target
   (query string included — [split_target] parses it).  The serving
   front-end (lib/srv) mounts itself with a [front]: its /query route,
   its line protocol and its /healthz fields.  Monitoring is opt-in:
   nothing listens until [start] is called. *)

type response = { status : int; content_type : string; body : string }

let respond ?(status = 200) ?(content_type = "text/plain; charset=utf-8") body
    =
  { status; content_type; body }

type front = {
  query :
    Unix.file_descr ->
    meth:string ->
    params:(string * string) list ->
    body:string ->
    unit;
  lines : Unix.file_descr -> Sockio.reader -> string -> unit;
  health : unit -> (string * Json.t) list;
}

type t = {
  sock : Unix.file_descr;
  port : int;
  registry : Metrics.t;
  started_ns : int;
  front : front option;
  mutable stopping : bool;
  mutable handlers : (string * (string -> response option)) list;
  mutable accept_thread : Thread.t option;
  sessions : (int, Unix.file_descr * Thread.t) Hashtbl.t;  (* by thread id *)
  smu : Mutex.t;
  served : int Atomic.t;  (* total requests, for /healthz *)
  open_conns : Metrics.gauge;
}

let reason = function
  | 200 -> "OK"
  | 404 -> "Not Found"
  | 400 -> "Bad Request"
  | 405 -> "Method Not Allowed"
  | 413 -> "Content Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | _ -> ""

(* --- Request targets -------------------------------------------------------- *)

let url_decode s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> -1
  in
  let rec go i =
    if i < n then
      match s.[i] with
      | '+' ->
          Buffer.add_char b ' ';
          go (i + 1)
      | '%' when i + 2 < n && hex s.[i + 1] >= 0 && hex s.[i + 2] >= 0 ->
          Buffer.add_char b (Char.chr ((hex s.[i + 1] * 16) + hex s.[i + 2]));
          go (i + 3)
      | c ->
          Buffer.add_char b c;
          go (i + 1)
  in
  go 0;
  Buffer.contents b

let split_target target =
  match String.index_opt target '?' with
  | None -> (target, [])
  | Some i ->
      let path = String.sub target 0 i in
      let qs = String.sub target (i + 1) (String.length target - i - 1) in
      let params =
        List.filter_map
          (fun kv ->
            match String.index_opt kv '=' with
            | None -> if kv = "" then None else Some (url_decode kv, "")
            | Some j ->
                Some
                  ( url_decode (String.sub kv 0 j),
                    url_decode (String.sub kv (j + 1) (String.length kv - j - 1))
                  ))
          (String.split_on_char '&' qs)
      in
      (path, params)

(* --- Built-in routes ------------------------------------------------------ *)

(* Slow-query events annotated with whether their trace survives in
   the tail sampler — the join an operator follows from a slowlog line
   straight to /trace/<id>. *)
let jsonl_of_events events =
  String.concat ""
    (List.map
       (fun ev ->
         let j = Qlog.to_json ev in
         let j =
           match j with
           | Json.Obj fields -> (
               match Json.member "trace_id" j with
               | Json.Str tid -> (
                   match Tail.find tid with
                   | Some r ->
                       Json.Obj
                         (fields
                         @ [
                             ("trace_retained", Json.Bool true);
                             ( "trace_reason",
                               Json.Str (Tail.reason_to_string r.Tail.r_reason)
                             );
                           ])
                   | None ->
                       Json.Obj (fields @ [ ("trace_retained", Json.Bool false) ])
                   )
               | _ -> j)
           | j -> j
         in
         Json.to_string j ^ "\n")
       events)

let trace_summaries () =
  Json.Arr
    (List.mapi
       (fun i (s : Trace.span) ->
         Json.Obj
           [
             ("n", Json.Num (float_of_int i));
             ("trace_id", Json.Str s.Trace.trace_id);
             ("name", Json.Str s.Trace.name);
             ("detail", Json.Str s.Trace.detail);
             ("spans", Json.Num (float_of_int (Trace.span_count s)));
             ("actors", Json.Arr (List.map (fun a -> Json.Str (if a = "" then "main" else a)) (Trace.actors s)));
             ("wall_ns", Json.Num (float_of_int s.Trace.elapsed_ns));
           ])
       (Trace.recent ()))

let find_trace sel =
  let ring = Trace.recent () in
  match sel with
  | "last" -> (match ring with [] -> None | s :: _ -> Some s)
  | sel -> (
      match int_of_string_opt sel with
      | Some n -> List.nth_opt ring n
      | None -> (
          match
            List.find_opt (fun (s : Trace.span) -> s.Trace.trace_id = sel) ring
          with
          | Some s -> Some s
          | None ->
              (* the recent ring is shallow; tail-retained traces live
                 longer, and exemplars/slowlog point at those ids *)
              Option.map (fun r -> r.Tail.r_span) (Tail.find sel)))

let tail_json () =
  Json.Obj
    [
      ("retained", Json.Num (float_of_int (Tail.retained_count ())));
      ("retained_spans", Json.Num (float_of_int (Tail.retained_spans ())));
      ("budget_spans", Json.Num (float_of_int (Tail.budget_spans ())));
      ( "slow_threshold_ms",
        Json.Num (float_of_int (Tail.slow_threshold_ns ()) /. 1e6) );
      ("sample_every", Json.Num (float_of_int (Tail.sample_every ())));
      ( "traces",
        Json.Arr
          (List.map
             (fun (r : Tail.retained) ->
               Json.Obj
                 [
                   ("trace_id", Json.Str r.Tail.r_trace_id);
                   ("reason", Json.Str (Tail.reason_to_string r.Tail.r_reason));
                   ("origin", Json.Str r.Tail.r_origin);
                   ("ts", Json.Num r.Tail.r_ts);
                   ("wall_ns", Json.Num (float_of_int r.Tail.r_wall_ns));
                   ( "spans",
                     Json.Num (float_of_int (Trace.span_count r.Tail.r_span)) );
                   ("name", Json.Str r.Tail.r_span.Trace.name);
                   ("detail", Json.Str r.Tail.r_span.Trace.detail);
                 ])
             (Tail.retained ())) );
    ]

(* /range: the flight recorder's query surface.  Unknown params are
   label matchers, so /range?metric=srv_request_ns&agg=p99&route=line
   restricts to that route's series. *)
let range_response params =
  match List.assoc_opt "metric" params with
  | None | Some "" ->
      respond ~status:400
        "usage: /range?metric=NAME[&agg=rate|sum|avg|min|max|pNN][&window=SECONDS][&step=SECONDS][&LABEL=VALUE...]\n"
  | Some metric -> (
      let fparam name default =
        match List.assoc_opt name params with
        | Some s -> (
            match float_of_string_opt s with
            | Some f when f > 0. -> f
            | _ -> default)
        | None -> default
      in
      let window_s = fparam "window" 300. in
      let step_s = fparam "step" (Tsdb.resolution_s Tsdb.default) in
      match
        match List.assoc_opt "agg" params with
        | None -> Some Tsdb.Avg
        | Some a -> Tsdb.agg_of_string a
      with
      | None ->
          respond ~status:400
            "bad agg: want rate|sum|avg|min|max|pNN (p50, p99, p999)\n"
      | Some agg ->
          let labels =
            List.filter
              (fun (k, _) ->
                not (List.mem k [ "metric"; "window"; "step"; "agg" ]))
              params
          in
          let points =
            Tsdb.range Tsdb.default ~labels ~step_s ~window_s ~agg metric
          in
          respond ~content_type:"application/json"
            (Json.to_string
               (Json.Obj
                  [
                    ("metric", Json.Str metric);
                    ("agg", Json.Str (Tsdb.agg_to_string agg));
                    ("window_s", Json.Num window_s);
                    ("step_s", Json.Num step_s);
                    ( "points",
                      Json.Arr
                        (List.map
                           (fun (ts, v) ->
                             Json.Arr
                               [
                                 Json.Num ts;
                                 (match v with
                                 | None -> Json.Null
                                 | Some v -> Json.Num v);
                               ])
                           points) );
                  ])))

let index_body =
  "ndq introspection server\n\
   /metrics    OpenMetrics exposition (exemplars link to retained traces)\n\
   /healthz    liveness + uptime + journal sink\n\
   /alerts     alert rules, states and transition history (JSON)\n\
   /slowlog    slow-query captures (JSON lines, trace_retained join)\n\
   /trace      recent traces (JSON summaries)\n\
   /trace/<n>  one trace as Chrome trace-event JSON (n, trace id or 'last')\n\
   /tail       tail-sampled retained traces (JSON)\n\
   /range      flight-recorder range query: ?metric=NAME&agg=p99&window=300\n\
   /dashboard  live dashboard (self-contained HTML, inline SVG sparklines)\n\
   /planstats  plan-quality observatory: q-error summaries + calibration\n\
   /workload   top plans by wall time (count, io, cache hit rate, worst q)\n"

(* What a mounted serving front-end adds to the index. *)
let front_index =
  "/query      evaluate ?q=<query>[&deadline_ms=<n>] (GET, or POST the query)\n\
   \n\
   Line protocol: connect and send one query per line; rows stream\n\
   back, each response ends with a `# status=...` trailer.\n"

let session_count t =
  Mutex.lock t.smu;
  let n = Hashtbl.length t.sessions in
  Mutex.unlock t.smu;
  n

let builtin t path params =
  match path with
  | "/" ->
      Some
        (respond
           (index_body ^ if Option.is_some t.front then front_index else ""))
  | "/metrics" ->
      Some
        (respond ~content_type:Promexp.content_type_openmetrics
           (Promexp.to_openmetrics t.registry))
  | "/range" -> Some (range_response params)
  | "/dashboard" ->
      Some (respond ~content_type:"text/html; charset=utf-8" (Dashboard.page ()))
  | "/tail" ->
      Some
        (respond ~content_type:"application/json"
           (Json.to_string (tail_json ())))
  | "/healthz" ->
      Some
        (respond ~content_type:"application/json"
           (Json.to_string
              (Json.Obj
                 ([
                    ("status", Json.Str "ok");
                   (* Whole seconds: a fractional uptime serializes with
                      variable width, so a HEAD rendered moments after a GET
                      could advertise a different Content-Length. *)
                   ( "uptime_s",
                     Json.Num
                       (float_of_int
                          ((Mclock.now_ns () - t.started_ns) / 1_000_000_000))
                   );
                   ("requests", Json.Num (float_of_int (Atomic.get t.served)));
                   ("sessions", Json.Num (float_of_int (session_count t)));
                   ( "journal",
                     Json.Obj
                       ([ ("enabled", Json.Bool (Qlog.enabled ())) ]
                       @ (match Qlog.path () with
                         | None -> []
                         | Some p -> [ ("path", Json.Str p) ])
                       @ [
                           ( "sink_bytes",
                             Json.Num (float_of_int (Qlog.sink_bytes ())) );
                           ( "max_bytes",
                             match Qlog.max_bytes () with
                             | None -> Json.Null
                             | Some n -> Json.Num (float_of_int n) );
                           ( "max_files",
                             Json.Num (float_of_int (Qlog.max_files ())) );
                         ]) );
                   ( "alerts_firing",
                     Json.Num
                       (float_of_int
                          (List.length (Alerts.firing Alerts.default))) );
                 ]
                 @ match t.front with Some f -> f.health () | None -> []))))
  | "/alerts" ->
      Some
        (respond ~content_type:"application/json"
           (Json.to_string (Alerts.to_json Alerts.default)))
  | "/slowlog" ->
      Some
        (respond ~content_type:"application/x-ndjson"
           (jsonl_of_events (Qlog.slowest 64)))
  | "/planstats" ->
      Some
        (respond ~content_type:"application/json"
           (Json.to_string (Planstats.to_json Planstats.default)))
  | "/workload" ->
      Some
        (respond ~content_type:"application/json"
           (Json.to_string (Planstats.workload_json Planstats.default)))
  | "/trace" | "/trace/" ->
      Some
        (respond ~content_type:"application/json"
           (Json.to_string (trace_summaries ())))
  | path when String.length path > 7 && String.sub path 0 7 = "/trace/" -> (
      let sel = String.sub path 7 (String.length path - 7) in
      match find_trace sel with
      | Some span ->
          Some
            (respond ~content_type:"application/json"
               (Chrome_trace.to_string [ span ]))
      | None ->
          Some
            (respond ~status:404 (Printf.sprintf "no trace %S\n" sel)))
  | _ -> None

(* --- HTTP plumbing -------------------------------------------------------- *)

(* Self-metrics label the first path segment only (so /trace/<n> stays
   one series) and the response status; the endpoint observing itself
   is the first thing an operator checks when scrapes look wrong. *)
let route_label path =
  match String.index_from_opt path 1 '/' with
  | Some i -> String.sub path 0 i
  | None -> path
  | exception Invalid_argument _ -> path

let observe_request t ~route ~status ~ns =
  Atomic.incr t.served;
  Metrics.incr
    (Metrics.counter ~registry:t.registry
       ~help:"requests served by the introspection endpoint"
       ~labels:[ ("route", route); ("status", string_of_int status) ]
       "monitor_requests_total");
  Metrics.observe_ns
    (Metrics.histogram ~registry:t.registry
       ~help:"wall nanoseconds per introspection request"
       ~labels:[ ("route", route) ]
       "monitor_request_ns")
    ns

(* Registered handlers see the full target (query string included);
   the builtins route on the bare path with the query string parsed
   into params.  [None]: no route. *)
let handle t target path params =
  try
    match List.find_map (fun (_, h) -> h target) t.handlers with
    | Some r -> Some r
    | None -> builtin t path params
  with e ->
    Some
      (respond ~status:500
         (Printf.sprintf "handler error: %s\n" (Printexc.to_string e)))

(* The response head alone — shared with the serving front-end, whose
   streamed responses send a head with no [Content-Length] (the body is
   EOF-delimited) followed by rows as they are produced. *)
let http_head ?(content_type = "text/plain; charset=utf-8") ?(headers = [])
    ?content_length status =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (reason status));
  Buffer.add_string b (Printf.sprintf "Content-Type: %s\r\n" content_type);
  (match content_length with
  | Some n -> Buffer.add_string b (Printf.sprintf "Content-Length: %d\r\n" n)
  | None -> ());
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string b "Connection: close\r\n\r\n";
  Buffer.contents b

let write_response fd ~head_only { status; content_type; body } =
  let head =
    http_head ~content_type ~content_length:(String.length body) status
  in
  ignore (Sockio.write_all fd (if head_only then head else head ^ body))

(* --- Sessions ------------------------------------------------------------- *)

(* An HTTP head (header block) may take at most [head_budget] bytes,
   and head and body must arrive within [head_timeout_ns] of the
   request line: a client that stalls mid-head or sends header lines
   forever loses its session instead of holding a thread until [stop]. *)
let head_budget = 16_384
let head_timeout_ns = 2_000_000_000

(* The largest request body read (the front-end's POST /query); a
   longer one is answered 413 unread. *)
let max_body = 1_048_576

(* METHOD SP TARGET SP HTTP/…  — anything else is not an HTTP request. *)
let request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; v ] when meth <> "" && String.starts_with ~prefix:"HTTP/" v
    ->
      Some (meth, target)
  | _ -> None

(* The header block up to its blank line, both ends of the connection,
   as (lowercased name, value) pairs: [None] when the stream ends first
   (a read error, or a receive timeout [on_timeout] declines) or the
   block overruns [budget] bytes. *)
let read_headers ?on_timeout ?(budget = max_int) r =
  let rec go budget acc =
    match Sockio.read_line ?on_timeout r with
    | Some "" -> Some (List.rev acc)
    | Some line when String.length line + 2 <= budget ->
        let n = String.length line in
        go (budget - n - 2)
          (match String.index_opt line ':' with
          | Some i ->
              ( String.lowercase_ascii (String.trim (String.sub line 0 i)),
                String.trim (String.sub line (i + 1) (n - i - 1)) )
              :: acc
          | None -> acc)
    | _ -> None
  in
  go budget []

(* One HTTP request after its request line.  /query goes to the
   mounted front-end, which writes its own (streamed) reply and
   accounts for it; everything else is answered and accounted here,
   under the route's label only when a route answered: the path is
   the client's, and an unbounded label set would grow the registry
   without bound.  HEAD gets the GET response's status and headers —
   Content-Length included — with the body withheld. *)
let serve_http t fd r ~on_timeout ~t0 meth target =
  let path, params = split_target target in
  let reply ?(route = "(other)") response =
    write_response fd ~head_only:(meth = "HEAD") response;
    observe_request t ~route ~status:response.status
      ~ns:(Mclock.now_ns () - t0)
  in
  let length headers =
    Option.bind (List.assoc_opt "content-length" headers) int_of_string_opt
    |> Option.value ~default:0
  in
  let bad = respond ~status:400 "bad request\n" in
  let body =
    match Option.map length (read_headers ~on_timeout ~budget:head_budget r) with
    | Some n when n > max_body ->
        Error
          (respond ~status:413
             (Printf.sprintf "request body over %d bytes\n" max_body))
    | Some n -> (
        match Sockio.read_upto ~on_timeout r n with
        | body when String.length body = n -> Ok body
        | _ -> Error bad)
    | None -> Error bad
  in
  match (body, t.front) with
  | Error response, _ -> reply response
  | Ok body, Some f when path = "/query" -> f.query fd ~meth ~params ~body
  | Ok _, _ when meth = "GET" || meth = "HEAD" -> (
      match handle t target path params with
      | Some response -> reply ~route:(route_label path) response
      | None ->
          reply (respond ~status:404 (Printf.sprintf "no route %s\n" path)))
  | Ok _, _ ->
      reply
        (respond ~status:405
           (Printf.sprintf "method %s not allowed (GET, HEAD)\n" meth))

(* Reads poll: the socket's short receive timeout wakes the reader
   every half second so a session blocked on an idle client notices
   [stopping].  Only a line-protocol client may idle before its first
   line (pipelined clients connect early); without a front-end the
   head deadline runs from connect. *)
let session t fd =
  let self = Thread.id (Thread.self ()) in
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.smu;
      Hashtbl.remove t.sessions self;
      Metrics.set t.open_conns (float_of_int (Hashtbl.length t.sessions));
      Mutex.unlock t.smu;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (try
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.5;
         Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.;
         (* Replies are written whole or in row batches; none should sit
            behind Nagle waiting for the client's delayed ACK. *)
         Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      let r = Sockio.reader fd in
      let until =
        ref
          (if Option.is_none t.front then Mclock.now_ns () + head_timeout_ns
           else max_int)
      in
      let on_timeout () = (not t.stopping) && Mclock.now_ns () < !until in
      match Sockio.read_line ~on_timeout r with
      | None -> ()
      | Some line -> (
          let t0 = Mclock.now_ns () in
          match (request_line line, t.front) with
          | Some (meth, target), _ ->
              until := min !until (t0 + head_timeout_ns);
              serve_http t fd r ~on_timeout ~t0 meth target
          | None, Some f -> f.lines fd r line
          | None, None ->
              write_response fd ~head_only:false
                (respond ~status:400 "bad request\n");
              observe_request t ~route:"(bad)" ~status:400
                ~ns:(Mclock.now_ns () - t0)))

let accept_loop t =
  while not t.stopping do
    match Unix.accept t.sock with
    | fd, _ ->
        if t.stopping then (try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          (* The insert happens under [smu] before the session can run
             its removal (which also needs [smu]), so the table never
             misses a live session or keeps a dead one. *)
          Mutex.lock t.smu;
          let th = Thread.create (session t) fd in
          Hashtbl.replace t.sessions (Thread.id th) (fd, th);
          Metrics.set t.open_conns (float_of_int (Hashtbl.length t.sessions));
          Mutex.unlock t.smu
        end
    | exception Unix.Unix_error _ -> ()  (* stop() closes the socket *)
  done

(* --- Lifecycle ------------------------------------------------------------ *)

let start ?(registry = Metrics.default) ?front ~port () =
  Sockio.ignore_sigpipe ();
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen sock 64
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let t =
    {
      sock;
      port;
      registry;
      started_ns = Mclock.now_ns ();
      front;
      stopping = false;
      handlers = [];
      accept_thread = None;
      sessions = Hashtbl.create 16;
      smu = Mutex.create ();
      served = Atomic.make 0;
      open_conns =
        Metrics.gauge ~registry ~help:"live connections (sessions)"
          (if Option.is_none front then "monitor_open_connections"
           else "srv_sessions");
    }
  in
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let port t = t.port

let add_handler t name h = t.handlers <- t.handlers @ [ (name, h) ]

let stop t =
  if not t.stopping then begin
    t.stopping <- true;
    (* wake a blocked accept with a throwaway connection *)
    (try
       let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () -> try Unix.close s with Unix.Unix_error _ -> ())
         (fun () ->
           Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port)))
     with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.accept_thread;
    (try Unix.close t.sock with Unix.Unix_error _ -> ());
    (* nudge sessions off their sockets, then join them *)
    Mutex.lock t.smu;
    let live = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [] in
    List.iter
      (fun (fd, _) ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      live;
    Mutex.unlock t.smu;
    List.iter (fun (_, th) -> Thread.join th) live
  end

(* --- A minimal loopback client ---------------------------------------------- *)

(* Enough HTTP to scrape our own endpoint (the bench harness does, and
   the tests): send one request, read to EOF, split status line,
   headers and body.  Header names come back lowercased.  [body] is
   the request's payload (the serving front-end's POST /query). *)
let request ?(host = "127.0.0.1") ?(meth = "GET") ?(body = "") ~port path =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close s with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float s Unix.SO_RCVTIMEO 5.;
      Unix.setsockopt_float s Unix.SO_SNDTIMEO 5.;
      Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      ignore
        (Sockio.write_all s
           (Printf.sprintf
              "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n\
               Connection: close\r\n\r\n%s"
              meth path host (String.length body) body));
      let r = Sockio.reader s in
      let status =
        match Option.map (String.split_on_char ' ') (Sockio.read_line r) with
        | Some (_ :: code :: _) ->
            Option.value ~default:0 (int_of_string_opt code)
        | _ -> 0
      in
      let headers = Option.value ~default:[] (read_headers r) in
      (status, headers, Sockio.read_upto r max_int))

let get ?host ~port path =
  let status, _, body = request ?host ~port path in
  (status, body)
