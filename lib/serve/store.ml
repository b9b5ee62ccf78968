module Json = Adc_json.Json

type t = {
  dir : string;
  max_entries : int option;
  mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
  mutable rejected : int;
  mutable evicted : int;
}

let rec mkdir_p dir =
  if dir = "" || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let dir t = t.dir

let path_of t ~key =
  Filename.concat t.dir (Digest.to_hex (Digest.string key) ^ ".json")

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* LRU-by-mtime eviction: when the directory holds more than
   [max_entries] entry files, remove the oldest beyond the cap ((mtime,
   name) order makes ties deterministic). Runs at open (a restarted
   daemon inherits a possibly-overfull directory) and after every
   write, so a long-lived daemon answering many distinct cells cannot
   grow its store without bound. In-flight [.tmp.*] files are never candidates; a racing
   reader of a just-evicted entry sees an ordinary miss. Caller holds
   the mutex (or is single-threaded at open). *)
let sweep_unlocked t =
  match t.max_entries with
  | None -> ()
  | Some cap ->
    let entries =
      match Sys.readdir t.dir with
      | exception Sys_error _ -> [||]
      | names -> names
    in
    let aged =
      Array.to_list entries
      |> List.filter_map (fun name ->
             if Filename.check_suffix name ".json" then
               let path = Filename.concat t.dir name in
               match Unix.stat path with
               | exception Unix.Unix_error _ -> None
               | st -> Some ((st.Unix.st_mtime, name), path)
             else None)
      |> List.sort compare
    in
    let excess = List.length aged - Stdlib.max 0 cap in
    if excess > 0 then
      List.iteri
        (fun i (_, path) ->
          if i < excess then begin
            (try Sys.remove path with Sys_error _ -> ());
            t.evicted <- t.evicted + 1
          end)
        aged

let open_dir ?max_entries dir =
  mkdir_p dir;
  if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Store.open_dir: %s is not a directory" dir);
  let t =
    { dir; max_entries; mutex = Mutex.create (); hits = 0; misses = 0;
      writes = 0; rejected = 0; evicted = 0 }
  in
  sweep_unlocked t;
  t

(* One entry is two lines: a header object carrying the full key (hash
   collisions resolve to a miss, never to the wrong payload) plus the
   payload's length and digest, then the payload bytes themselves. Any
   integrity failure — malformed header, key mismatch, short read,
   digest mismatch — reads as a miss and is counted in [rejected]. *)

let header ~key ~payload =
  Json.to_string
    (Json.Obj
       [
         ("format", Json.Int 1);
         ("key", Json.String key);
         ("length", Json.Int (String.length payload));
         ("digest", Json.String (Digest.to_hex (Digest.string payload)));
       ])

let validate ~key contents =
  match String.index_opt contents '\n' with
  | None -> None
  | Some nl ->
    let head = String.sub contents 0 nl in
    let rest = String.sub contents (nl + 1) (String.length contents - nl - 1) in
    (match Json.parse head with
    | exception Json.Parse_error _ -> None
    | h ->
      let field name = Json.member name h in
      (match (field "format", field "key", field "length", field "digest") with
      | Some (Json.Int 1), Some (Json.String k), Some (Json.Int len),
        Some (Json.String dg)
        when k = key ->
        (* the payload line may or may not carry a trailing newline *)
        let payload =
          if String.length rest > 0 && rest.[String.length rest - 1] = '\n'
          then String.sub rest 0 (String.length rest - 1)
          else rest
        in
        if String.length payload = len
           && Digest.to_hex (Digest.string payload) = dg
        then Some payload
        else None
      | _ -> None))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let find t ~key =
  let path = path_of t ~key in
  let outcome =
    if not (Sys.file_exists path) then `Miss
    else
      match read_file path with
      | exception Sys_error _ -> `Rejected
      | contents ->
        (match validate ~key contents with
        | Some payload ->
          (* re-touch so eviction is least-recently-USED, not
             least-recently-written: a hot entry must outlive colder
             ones written after it *)
          (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
          `Hit payload
        | None -> `Rejected)
  in
  locked t (fun () ->
      match outcome with
      | `Hit _ -> t.hits <- t.hits + 1
      | `Miss -> t.misses <- t.misses + 1
      | `Rejected ->
        t.rejected <- t.rejected + 1;
        t.misses <- t.misses + 1);
  match outcome with `Hit payload -> Some payload | `Miss | `Rejected -> None

let tmp_seq = Atomic.make 0

let add t ~key ~payload =
  let path = path_of t ~key in
  (* Temp-then-rename keeps concurrent readers and a mid-write crash
     from ever observing a torn entry. The sequence number makes the
     temp name unique per call, not just per process: two worker
     threads writing the same key must not share a temp file, or the
     loser's rename fails on a path the winner already moved. *)
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_seq 1)
  in
  let oc = open_out_bin tmp in
  (try
     output_string oc (header ~key ~payload);
     output_char oc '\n';
     output_string oc payload;
     output_char oc '\n';
     close_out oc;
     Sys.rename tmp path
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  locked t (fun () ->
      t.writes <- t.writes + 1;
      sweep_unlocked t)

let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
let writes t = locked t (fun () -> t.writes)
let rejected t = locked t (fun () -> t.rejected)
let evicted t = locked t (fun () -> t.evicted)

let stats_json t =
  locked t (fun () ->
      Json.Obj
        [
          ("hits", Json.Int t.hits);
          ("misses", Json.Int t.misses);
          ("writes", Json.Int t.writes);
          ("rejected", Json.Int t.rejected);
          ("evicted", Json.Int t.evicted);
        ])
