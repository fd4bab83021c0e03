(* The concurrent query-serving front-end.

   One listening socket accepts both protocols: the first line of a
   connection is sniffed — `GET /query?... HTTP/1.1` marks HTTP, any
   other line starts the line-oriented text protocol (one query per
   line, rows streamed back, a `# status=...` trailer per query).
   Each connection gets a session thread that parses requests and
   submits them to a bounded admission queue; a fixed pool of worker
   threads — each owning its own [Engine] over the shared read-only
   instance — executes them.  A full queue sheds the request
   immediately (HTTP 503 + Retry-After / `# status=busy`): explicit
   backpressure instead of unbounded buffering.  Every request carries
   an absolute deadline measured from admission, checked before
   execution and between result batches, so a query that waited out
   its budget in the queue is never run, and one that exceeds it
   mid-stream stops after shipping partial results.

   Results ship as they are produced: evaluation uses the streaming
   [Source] pipeline and flushes 64-row batches to the socket while
   the query is still running, so time-to-first-row is independent of
   result size.  The response head rides with the first batch and the
   trailer with the last, so a reply of at most one batch is a single
   write; accepted sockets set TCP_NODELAY, so no batch waits for the
   client's delayed ACK.

   Instrumented end to end: srv_requests_total{route,status},
   srv_request_ns{route} (admission to completion — queue wait
   included, which is what an SLO on served latency must measure),
   srv_queue_depth, srv_sessions, srv_shed_total; each executed query
   journals a Qlog event carrying a fresh trace id. *)

type status = S_ok | S_error of string | S_busy | S_deadline

(* --- Jobs and the admission queue ---------------------------------------- *)

type job = {
  run : Engine.t -> unit;  (* executes and writes the response *)
  mutable finished : bool;
  jmu : Mutex.t;
  jcv : Condition.t;
}

type t = {
  sock : Unix.file_descr;
  port : int;
  registry : Metrics.t;
  queue_cap : int;
  n_workers : int;
  deadline_ns : int;  (* default per-request budget *)
  mutable stopping : bool;
  queue : job Queue.t;
  qmu : Mutex.t;
  qcv : Condition.t;
  mutable workers : Thread.t list;
  mutable accept_thread : Thread.t option;
  sessions : (int, Unix.file_descr * Thread.t) Hashtbl.t;  (* by thread id *)
  smu : Mutex.t;
  g_depth : Metrics.gauge;
  g_sessions : Metrics.gauge;
  c_shed : Metrics.counter;
}

let observe ?trace_id t ~route ~status ~ns =
  Metrics.incr
    (Metrics.counter ~registry:t.registry
       ~help:"requests handled by the serving front-end"
       ~labels:[ ("route", route); ("status", string_of_int status) ]
       "srv_requests_total");
  Metrics.observe_ns ?trace_id
    (Metrics.histogram ~registry:t.registry
       ~help:
         "wall nanoseconds per served request, admission to completion \
          (queue wait included)"
       ~labels:[ ("route", route) ]
       "srv_request_ns")
    ns

let set_depth t n = Metrics.set t.g_depth (float_of_int n)

type admission = Admitted of job | Shed

let submit t run =
  Mutex.lock t.qmu;
  if t.stopping || Queue.length t.queue >= t.queue_cap then begin
    Mutex.unlock t.qmu;
    Metrics.incr t.c_shed;
    Shed
  end
  else begin
    let j =
      { run; finished = false; jmu = Mutex.create (); jcv = Condition.create () }
    in
    Queue.push j t.queue;
    set_depth t (Queue.length t.queue);
    Condition.signal t.qcv;
    Mutex.unlock t.qmu;
    Admitted j
  end

let wait_job j =
  Mutex.lock j.jmu;
  while not j.finished do
    Condition.wait j.jcv j.jmu
  done;
  Mutex.unlock j.jmu

let finish_job j =
  Mutex.lock j.jmu;
  j.finished <- true;
  Condition.broadcast j.jcv;
  Mutex.unlock j.jmu

let worker_loop t make_engine () =
  let engine = make_engine () in
  let rec loop () =
    Mutex.lock t.qmu;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.qcv t.qmu
    done;
    if Queue.is_empty t.queue && t.stopping then Mutex.unlock t.qmu
    else begin
      let j = Queue.pop t.queue in
      set_depth t (Queue.length t.queue);
      Mutex.unlock t.qmu;
      (try j.run engine with _ -> ());
      finish_job j;
      loop ()
    end
  in
  loop ()

(* --- Socket plumbing ------------------------------------------------------ *)

(* Session reads poll: the socket's short receive timeout wakes the
   reader every half second so a session blocked on an idle client
   still notices [stopping] and exits promptly. *)
let keep_waiting t () = not t.stopping
let read_line t r = Sockio.read_line ~on_timeout:(keep_waiting t) r

(* The largest request body (POST /query) a session reads. *)
let max_body = 1_048_576

(* --- Request text --------------------------------------------------------- *)

(* Target parsing (path + url-decoded query params) is shared with the
   introspection endpoint — one HTTP dialect, one parser. *)
let split_target = Monitor.split_target

(* --- Execution ------------------------------------------------------------ *)

(* The trailer line both protocols end a query response with. *)
let trailer status ~rows ~wall_ns =
  match status with
  | S_ok -> Printf.sprintf "# status=ok rows=%d wall_us=%d\n" rows (wall_ns / 1000)
  | S_deadline ->
      Printf.sprintf "# status=deadline rows=%d wall_us=%d\n" rows
        (wall_ns / 1000)
  | S_busy -> "# status=busy retry_ms=1000\n"
  | S_error msg -> Printf.sprintf "# status=error msg=%S\n" msg

let http_code = function
  | S_ok -> 200
  | S_deadline -> 504
  | S_busy -> 503
  | S_error _ -> 400

(* The streaming-executor memory bound (Thm 8.3) as a live gauge: the
   high-water resident-page mark of the last worker engine to finish a
   query.  The flight recorder's series over it is how CI watches the
   constant-memory claim hold across a whole load run. *)
let g_resident =
  Metrics.gauge
    ~help:"max resident pages observed by a serving worker engine"
    "srv_engine_max_resident_pages"

let tail_outcome = function
  | S_ok -> `Ok
  | S_deadline -> `Deadline
  | S_busy -> `Shed
  | S_error _ -> `Error

(* Rows per streamed batch. *)
let batch_rows = 64

(* Evaluate one query on a worker's engine, appending rows to [out] and
   calling [flush] to ship each full batch of [batch_rows] once the
   next row exists — so a reply of at most one batch is left whole in
   [out] for the caller to send with its trailer.  The deadline is
   checked before every row.  Returns the final status, the rows
   produced, the wall time and the trace id.
   Every request runs force-traced — the completed span tree goes to
   the tail sampler, which decides whether it is worth keeping — and
   journals a Qlog event when the journal is open. *)
let execute engine ~query_text ~deadline_ns ~out ~flush =
  let journal = Qlog.enabled () in
  let tid = Trace.next_trace_id () in
  let stats = Engine.stats engine in
  let reads0 = stats.Io_stats.page_reads
  and writes0 = stats.Io_stats.page_writes in
  let alloc0 = Gc.allocated_bytes () in
  let t0 = Mclock.now_ns () in
  let rows = ref 0 in
  let outcome, span =
    Engine.with_forced_tracing true @@ fun () ->
    Trace.with_trace_id tid @@ fun () ->
    Trace.with_actor "srv" @@ fun () ->
    match
      Trace.with_span_out ~detail:query_text ~stats "serve" (fun () ->
          match
            Qparser.of_string
              ~schema:(Instance.schema (Engine.instance engine))
              query_text
          with
          | exception Qparser.Parse_error msg -> `Parse msg
          | ast ->
              let src = Engine.eval_node_src engine ast in
              let status = ref S_ok in
              (try
                 let rec pump n =
                   if Mclock.now_ns () > deadline_ns then status := S_deadline
                   else
                     match Ext_list.Source.next src with
                     | None -> ()
                     | Some e ->
                         let n =
                           if n < batch_rows then n
                           else if flush () then 0
                           else raise Exit
                         in
                         Buffer.add_string out (Dn.to_string (Entry.dn e));
                         Buffer.add_char out '\n';
                         incr rows;
                         pump (n + 1)
                 in
                 pump 0
               with Exit -> ());
              Trace.set_rows !rows;
              `Ran (ast, !status))
    with
    | `Ran (ast, status), span ->
        if journal then begin
          let ops =
            match span with Some s -> Qlog.ops_of_span s | None -> []
          in
          let out : Qlog.outcome =
            match status with
            | S_ok -> Qlog.Ok
            | S_deadline -> Qlog.Failed "deadline"
            | S_busy -> Qlog.Failed "busy"
            | S_error m -> Qlog.Failed m
          in
          ignore
            (Qlog.record ~trace_id:tid ~ops ~query:query_text
               ~fingerprint:(Plan.fingerprint ast)
               ~result_count:!rows
               ~reads:(stats.Io_stats.page_reads - reads0)
               ~writes:(stats.Io_stats.page_writes - writes0)
               ~wall_ns:(Mclock.now_ns () - t0)
               ~alloc_bytes:(int_of_float (Gc.allocated_bytes () -. alloc0))
               ~outcome:out ())
        end;
        (status, span)
    | `Parse msg, span ->
        if journal then
          ignore
            (Qlog.record ~trace_id:tid ~query:query_text ~fingerprint:"(parse)"
               ~result_count:0 ~reads:0 ~writes:0
               ~wall_ns:(Mclock.now_ns () - t0)
               ~outcome:(Qlog.Failed msg) ());
        (S_error msg, span)
    | exception e -> (S_error (Printexc.to_string e), None)
  in
  let wall = Mclock.now_ns () - t0 in
  Metrics.set g_resident (float_of_int stats.Io_stats.max_resident_pages);
  Option.iter
    (fun s ->
      ignore
        (Tail.consider ~origin:"srv" ~outcome:(tail_outcome outcome)
           ~wall_ns:wall s))
    span;
  (outcome, !rows, wall, tid)

(* A request that never reached a worker engine (shed at admission, or
   its budget died in the queue) still deserves a trace the tail
   sampler can retain: a one-node span with a fresh trace id, so the
   503/504 shows up in `/tail` and as an exemplar like any slow
   request. *)
let synthetic_span ~name ~detail ~wall_ns : Trace.span =
  {
    Trace.name;
    detail;
    trace_id = Trace.next_trace_id ();
    actor = "srv";
    start_ns = Mclock.now_ns () - wall_ns;
    elapsed_ns = wall_ns;
    io = Io_stats.create ();
    alloc_bytes = 0;
    rows = None;
    children = [];
  }

(* Admit, execute on a worker, stream to the socket, account.  The
   calling session thread blocks until the worker finishes, preserving
   request order within a connection. *)
let serve_query t fd ~route ~write_head ~deadline_ns query_text =
  let submitted = Mclock.now_ns () in
  let absolute_deadline = submitted + deadline_ns in
  let run engine =
    if Mclock.now_ns () > absolute_deadline then begin
      (* the budget died in the queue: don't run at all *)
      let wall = Mclock.now_ns () - submitted in
      let sp = synthetic_span ~name:"queue-deadline" ~detail:query_text ~wall_ns:wall in
      ignore (Tail.consider ~origin:"srv" ~outcome:`Deadline ~wall_ns:wall sp);
      ignore
        (Sockio.write_all fd
           (write_head S_deadline ^ trailer S_deadline ~rows:0 ~wall_ns:wall));
      observe ~trace_id:sp.Trace.trace_id t ~route
        ~status:(http_code S_deadline) ~ns:wall
    end
    else begin
      (* The head is staged ahead of the rows: it leaves with the first
         batch, and a reply of at most one batch (head, rows, trailer)
         is a single write. *)
      let out = Buffer.create 1024 in
      Buffer.add_string out (write_head S_ok);
      let flush () =
        let ok = Sockio.write_all fd (Buffer.contents out) in
        Buffer.clear out;
        ok
      in
      let status, rows, _exec_ns, tid =
        execute engine ~query_text ~deadline_ns:absolute_deadline ~out ~flush
      in
      let wall = Mclock.now_ns () - submitted in
      if rows = 0 then begin
        (* nothing was produced, so the head can carry the outcome *)
        Buffer.clear out;
        Buffer.add_string out (write_head status)
      end;
      Buffer.add_string out (trailer status ~rows ~wall_ns:wall);
      ignore (Sockio.write_all fd (Buffer.contents out));
      observe ~trace_id:tid t ~route ~status:(http_code status) ~ns:wall
    end
  in
  match submit t run with
  | Admitted j -> wait_job j
  | Shed ->
      let wall = Mclock.now_ns () - submitted in
      let sp = synthetic_span ~name:"shed" ~detail:query_text ~wall_ns:wall in
      ignore (Tail.consider ~origin:"srv" ~outcome:`Shed ~wall_ns:wall sp);
      ignore
        (Sockio.write_all fd
           (write_head S_busy ^ trailer S_busy ~rows:0 ~wall_ns:0));
      observe ~trace_id:sp.Trace.trace_id t ~route ~status:503 ~ns:wall

(* --- The HTTP face --------------------------------------------------------- *)

let index_body =
  "ndq serving front-end\n\
   /query?q=<query>[&deadline_ms=<n>]   evaluate (GET or POST, body = query)\n\
   /healthz                             liveness JSON\n\
   \n\
   Line protocol: connect and send one query per line; rows stream\n\
   back, each response ends with a `# status=...` trailer.\n"

let healthz_body t =
  Json.to_string
    (Json.Obj
       [
         ("status", Json.Str "ok");
         ("workers", Json.Num (float_of_int t.n_workers));
         ( "queue_depth",
           Json.Num
             (float_of_int
                (Mutex.lock t.qmu;
                 let n = Queue.length t.queue in
                 Mutex.unlock t.qmu;
                 n)) );
         ( "sessions",
           Json.Num
             (float_of_int
                (Mutex.lock t.smu;
                 let n = Hashtbl.length t.sessions in
                 Mutex.unlock t.smu;
                 n)) );
       ])

let respond_simple t fd ~route response =
  let t0 = Mclock.now_ns () in
  Monitor.write_response fd ~head_only:false response;
  observe t ~route ~status:response.Monitor.status ~ns:(Mclock.now_ns () - t0)

(* Streamed /query head: no Content-Length, the body is EOF-delimited;
   busy additionally advertises Retry-After, the explicit backpressure
   contract. *)
let query_head status =
  let headers = match status with S_busy -> [ ("Retry-After", "1") ] | _ -> [] in
  Monitor.http_head ~content_type:"text/plain; charset=utf-8" ~headers
    (http_code status)

let handle_http t fd r first_line =
  match String.split_on_char ' ' first_line with
  | meth :: target :: _ -> (
      (* drain headers; keep Content-Length for the body *)
      let content_length = ref 0 in
      let rec headers () =
        match read_line t r with
        | None | Some "" -> ()
        | Some line ->
            (match String.index_opt line ':' with
            | Some i
              when String.lowercase_ascii (String.trim (String.sub line 0 i))
                   = "content-length" -> (
                match
                  int_of_string_opt
                    (String.trim
                       (String.sub line (i + 1) (String.length line - i - 1)))
                with
                | Some n -> content_length := n
                | None -> ())
            | _ -> ());
            headers ()
      in
      headers ();
      let body =
        if !content_length > 0 && !content_length <= max_body then
          Option.value ~default:""
            (Sockio.read_exact ~on_timeout:(keep_waiting t) r !content_length)
        else ""
      in
      let path, params = split_target target in
      match (meth, path) with
      | ("GET" | "HEAD"), "/" ->
          respond_simple t fd ~route:"/" (Monitor.respond index_body)
      | ("GET" | "HEAD"), "/healthz" ->
          respond_simple t fd ~route:"/healthz"
            (Monitor.respond ~content_type:"application/json" (healthz_body t))
      | ("GET" | "POST"), "/query" -> (
          let query_text =
            if body <> "" then String.trim body
            else
              match List.assoc_opt "q" params with
              | Some q -> String.trim q
              | None -> ""
          in
          let deadline_ns =
            match List.assoc_opt "deadline_ms" params with
            | Some s -> (
                match int_of_string_opt s with
                | Some ms when ms > 0 -> ms * 1_000_000
                | _ -> t.deadline_ns)
            | None -> t.deadline_ns
          in
          match query_text with
          | "" ->
              respond_simple t fd ~route:"/query"
                (Monitor.respond ~status:400
                   "missing query: GET /query?q=... or POST the query text\n")
          | q -> serve_query t fd ~route:"/query" ~write_head:query_head
                   ~deadline_ns q)
      | _, ("/" | "/healthz" | "/query") ->
          respond_simple t fd ~route:path
            (Monitor.respond ~status:405
               (Printf.sprintf "method %s not allowed\n" meth))
      | _ ->
          respond_simple t fd ~route:"(other)"
            (Monitor.respond ~status:404
               (Printf.sprintf "no route %s\n" path)))
  | _ ->
      respond_simple t fd ~route:"(bad)"
        (Monitor.respond ~status:400 "bad request\n")

(* --- The line-protocol face ------------------------------------------------ *)

(* No HTTP head: the write_head hook contributes nothing, the trailer
   alone reports status. *)
let line_head _status = ""

let handle_line_session t fd r first_line =
  let deadline = ref t.deadline_ns in
  let handle line =
    match String.trim line with
    | "" -> true
    | "PING" -> Sockio.write_all fd "PONG\n"
    | "QUIT" | "BYE" -> false
    | line when String.length line > 9 && String.sub line 0 9 = "DEADLINE " -> (
        match int_of_string_opt (String.trim (String.sub line 9 (String.length line - 9))) with
        | Some ms when ms > 0 ->
            deadline := ms * 1_000_000;
            Sockio.write_all fd "OK\n"
        | _ -> Sockio.write_all fd "# status=error msg=\"bad DEADLINE\"\n")
    | query ->
        serve_query t fd ~route:"line" ~write_head:line_head
          ~deadline_ns:!deadline query;
        true
  in
  let rec loop line =
    if handle line && not t.stopping then
      match read_line t r with None -> () | Some l -> loop l
  in
  loop first_line

(* --- Sessions -------------------------------------------------------------- *)

let looks_like_http line =
  (* METHOD SP TARGET SP HTTP/…  *)
  match String.split_on_char ' ' line with
  | [ _; _; v ] -> String.length v >= 5 && String.sub v 0 5 = "HTTP/"
  | _ -> false

let session t fd =
  let self = Thread.id (Thread.self ()) in
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.smu;
      Hashtbl.remove t.sessions self;
      Metrics.set t.g_sessions (float_of_int (Hashtbl.length t.sessions));
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
      match read_line t r with
      | None -> ()
      | Some line ->
          if looks_like_http line then handle_http t fd r line
          else handle_line_session t fd r line)

let accept_loop t () =
  while not t.stopping do
    match Unix.accept t.sock with
    | fd, _ ->
        if t.stopping then (try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          (* The insert happens under [smu] before the session can run
             its removal (which also needs [smu]), so the table never
             misses a live session or keeps a dead one. *)
          Mutex.lock t.smu;
          let th = Thread.create (fun () -> session t fd) () in
          Hashtbl.replace t.sessions (Thread.id th) (fd, th);
          Metrics.set t.g_sessions (float_of_int (Hashtbl.length t.sessions));
          Mutex.unlock t.smu
        end
    | exception Unix.Unix_error _ -> ()  (* stop() closes the socket *)
  done

(* --- Lifecycle ------------------------------------------------------------- *)

let start ?(registry = Metrics.default) ?(workers = 4) ?(queue = 64)
    ?(deadline_ms = 5_000) ?(port = 0) ~make_engine () =
  if workers < 1 then invalid_arg "Srv.start: workers must be positive";
  if queue < 1 then invalid_arg "Srv.start: queue must be positive";
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
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  let t =
    {
      sock;
      port;
      registry;
      queue_cap = queue;
      n_workers = workers;
      deadline_ns = deadline_ms * 1_000_000;
      stopping = false;
      queue = Queue.create ();
      qmu = Mutex.create ();
      qcv = Condition.create ();
      workers = [];
      accept_thread = None;
      sessions = Hashtbl.create 16;
      smu = Mutex.create ();
      g_depth =
        Metrics.gauge ~registry ~help:"requests waiting in the admission queue"
          "srv_queue_depth";
      g_sessions =
        Metrics.gauge ~registry ~help:"live serving sessions (connections)"
          "srv_sessions";
      c_shed =
        Metrics.counter ~registry
          ~help:"requests shed because the admission queue was full"
          "srv_shed_total";
    }
  in
  t.workers <-
    List.init workers (fun _ -> Thread.create (worker_loop t make_engine) ());
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  t

let port t = t.port
let workers t = t.n_workers
let queue_capacity t = t.queue_cap

let queue_depth t =
  Mutex.lock t.qmu;
  let n = Queue.length t.queue in
  Mutex.unlock t.qmu;
  n

let session_count t =
  Mutex.lock t.smu;
  let n = Hashtbl.length t.sessions in
  Mutex.unlock t.smu;
  n

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
    (* workers drain what was admitted, then exit *)
    Mutex.lock t.qmu;
    Condition.broadcast t.qcv;
    Mutex.unlock t.qmu;
    List.iter Thread.join t.workers;
    (* nudge idle sessions off their sockets, then join them *)
    Mutex.lock t.smu;
    let live = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [] in
    List.iter
      (fun (fd, _) ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      live;
    Mutex.unlock t.smu;
    List.iter (fun (_, th) -> Thread.join th) live;
    Metrics.set t.g_sessions 0.;
    set_depth t 0
  end
