(* Socket plumbing for the serving path: one write loop and one line
   reader, used at both ends of the connection. *)

let write_all fd s =
  let len = String.length s in
  let rec go off =
    off >= len
    ||
    let n = Unix.write_substring fd s off (len - off) in
    n > 0 && go (off + n)
  in
  try go 0 with Unix.Unix_error _ -> false

let ignore_sigpipe () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let max_line = 65_536

(* Bytes [start, stop) of [buf] are read but not yet returned; none of
   [start, scan) is a newline, so a refill resumes the search at [scan]
   instead of rescanning the partial line. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable stop : int;
  mutable scan : int;
  mutable eof : bool;
}

let reader fd =
  {
    fd;
    buf = Bytes.create 4096;
    start = 0;
    stop = 0;
    scan = 0;
    eof = false;
  }

(* One read into [dst]: the byte count, or 0 at end of stream, on a
   read error, or on a receive timeout [on_timeout] declines to wait
   out. *)
let rec read_some ~on_timeout r dst off len =
  if r.eof then 0
  else
    match Unix.read r.fd dst off len with
    | 0 ->
        r.eof <- true;
        0
    | n -> n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      when on_timeout () ->
        read_some ~on_timeout r dst off len
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        read_some ~on_timeout r dst off len
    | exception Unix.Unix_error _ ->
        r.eof <- true;
        0

(* Move the unreturned bytes to the front, grow the buffer if they
   fill it (never past the line bound plus its newline), read once. *)
let refill ~on_timeout r =
  if r.start > 0 then begin
    Bytes.blit r.buf r.start r.buf 0 (r.stop - r.start);
    r.stop <- r.stop - r.start;
    r.scan <- r.scan - r.start;
    r.start <- 0
  end;
  if r.stop = Bytes.length r.buf then begin
    let bigger =
      Bytes.create (min (max_line + 1) (2 * Bytes.length r.buf))
    in
    Bytes.blit r.buf 0 bigger 0 r.stop;
    r.buf <- bigger
  end;
  let n =
    read_some ~on_timeout r r.buf r.stop (Bytes.length r.buf - r.stop)
  in
  r.stop <- r.stop + n;
  n > 0

let rec newline buf i stop =
  if i >= stop then -1
  else if Bytes.unsafe_get buf i = '\n' then i
  else newline buf (i + 1) stop

(* Past the bound the stream is abandoned: drop what is buffered and
   answer end of stream from now on. *)
let overflow r =
  r.eof <- true;
  r.start <- r.stop;
  r.scan <- r.stop;
  None

let read_line ?(on_timeout = fun () -> false) r =
  let rec go () =
    let i = newline r.buf r.scan r.stop in
    if i >= 0 then
      if i - r.start > max_line then overflow r
      else begin
        let len = i - r.start in
        let len =
          if len > 0 && Bytes.get r.buf (i - 1) = '\r' then len - 1 else len
        in
        let line = Bytes.sub_string r.buf r.start len in
        r.start <- i + 1;
        r.scan <- i + 1;
        Some line
      end
    else begin
      r.scan <- r.stop;
      if r.stop - r.start > max_line then overflow r
      else if refill ~on_timeout r then go ()
      else None
    end
  in
  go ()

let read_upto ?(on_timeout = fun () -> false) r n =
  let b = Buffer.create (min n 4096) in
  let rec go () =
    let want = n - Buffer.length b in
    if want > 0 && (r.start < r.stop || refill ~on_timeout r) then begin
      let k = min want (r.stop - r.start) in
      Buffer.add_subbytes b r.buf r.start k;
      r.start <- r.start + k;
      r.scan <- max r.scan r.start;
      go ()
    end
  in
  go ();
  Buffer.contents b
