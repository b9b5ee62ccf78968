(* Child processes: the real [adcopt serve] / [adcopt route] binaries,
   spawned the way a user starts them, and the bookkeeping that makes
   sure every one of them is stopped and reaped. *)

module Clock = Adc_obs.Clock

(* The CLI built next to this executable: dune puts the harness under
   _build/default/bench/adcbench/ and the CLI at _build/default/bin/. *)
let adcopt =
  lazy
    (let cli dir = Filename.concat dir (Filename.concat "bin" "adcopt.exe") in
     let rec up dir =
       if Sys.file_exists (cli dir) then cli dir
       else if Filename.dirname dir = dir then failwith "adcopt.exe not found above the harness"
       else up (Filename.dirname dir)
     in
     up (Filename.dirname Sys.executable_name))

let now_s () = Clock.ns_to_s (Clock.now_ns ())

(* CPU time, in clock ticks, that the hypervisor ran other guests on this
   virtual machine's processors while they had work: the "steal" column
   of the cpu line of /proc/stat. 0 where the kernel does not report it. *)
let steal_ticks () =
  match In_channel.with_open_text "/proc/stat" input_line with
  | exception (Sys_error _ | End_of_file) -> 0
  | line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: _user :: _nice :: _system :: _idle :: _iowait :: _irq :: _softirq :: steal :: _ ->
      Option.value (int_of_string_opt steal) ~default:0
    | _ -> 0)

(* [f ()] with its wall time in seconds and the ticks stolen per second
   while it ran. *)
let timed f =
  let t0 = now_s () and s0 = steal_ticks () in
  let r = f () in
  let wall = now_s () -. t0 in
  (r, wall, float_of_int (steal_ticks () - s0) /. Float.max wall 1e-3)

type child = { pid : int; name : string; mutable reaped : bool }

let live : child list ref = ref []

let spawn ~name args =
  let exe = Lazy.force adcopt in
  let log =
    Unix.openfile (name ^ ".log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin log log)
  in
  let c = { pid; name; reaped = false } in
  live := c :: !live;
  c

(* Peak resident set of a live child, from /proc. *)
let vm_hwm_mb pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                 float_of_int kb /. 1024.0)
           | _ -> None)
    |> Option.value ~default:0.0

let self_hwm_mb () = vm_hwm_mb (Unix.getpid ())

let rec waitpid_nohang pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_nohang pid

(* SIGTERM starts the daemon's graceful drain. *)
let terminate c = if not c.reaped then try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ()

(* Wait for a terminated child; one still running after [grace_s] is
   killed. Either way it is reaped. *)
let reap ?(grace_s = 10.0) c =
  if not c.reaped then begin
    let deadline = now_s () +. grace_s in
    let rec wait () =
      match waitpid_nohang c.pid with
      | 0, _ when now_s () < deadline ->
        Unix.sleepf 0.002;
        wait ()
      | 0, _ ->
        (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] c.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ();
    c.reaped <- true;
    live := List.filter (fun x -> x != c) !live
  end

let stop_all () =
  let cs = !live in
  List.iter terminate cs;
  List.iter (reap ~grace_s:5.0) cs

let () = at_exit stop_all

(* ------------------------------------------------------------------ *)
(* readiness *)

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* One blocking round trip; the reply's first line. *)
let round_trip path line =
  let fd = connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_all fd (line ^ "\n");
      let ic = Unix.in_channel_of_descr fd in
      input_line ic)

let ping_ok path =
  match round_trip path {|{"id":0,"verb":"ping"}|} with
  | reply -> Reply.is_ok reply
  | exception (Unix.Unix_error _ | End_of_file | Sys_error _) -> false

(* Poll until [path] answers a ping. Raises [Failure] past [timeout_s]
   or when the child died first. *)
let wait_ready ?(timeout_s = 60.0) c path =
  let deadline = now_s () +. timeout_s in
  let rec go () =
    if ping_ok path then ()
    else begin
      (match waitpid_nohang c.pid with
      | 0, _ -> ()
      | _ ->
        c.reaped <- true;
        failwith (Printf.sprintf "%s exited before answering (see %s.log)" c.name c.name)
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ());
      if now_s () > deadline then
        failwith (Printf.sprintf "%s did not answer within %.0f s" c.name timeout_s);
      Unix.sleepf 0.0002;
      go ()
    end
  in
  go ()
