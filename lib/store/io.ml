type t = {
  list_dir : string -> string list;
  read_file : string -> string;
  write_file : string -> string -> unit;
  fsync : string -> unit;
  fsync_dir : string -> unit;
  rename : src:string -> dst:string -> unit;
  delete : string -> unit;
  mkdir : string -> unit;
  exists : string -> bool;
}

type op = List_dir | Read | Write | Fsync | Fsync_dir | Rename | Delete | Mkdir

let is_mutating = function
  | Write | Fsync | Fsync_dir | Rename | Delete | Mkdir -> true
  | List_dir | Read -> false

exception Fault of string

(* One exception family for callers: Unix_error becomes Sys_error. *)
let sys_errors path f =
  try f ()
  with Unix.Unix_error (e, _, _) ->
    raise (Sys_error (Fmt.str "%s: %s" path (Unix.error_message e)))

let real =
  {
    list_dir = (fun dir -> Sys.readdir dir |> Array.to_list);
    read_file =
      (fun path ->
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic)));
    write_file =
      (fun path data ->
        sys_errors path (fun () ->
            let fd =
              Unix.openfile path Unix.[ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
            in
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                let n = String.length data in
                let written = ref 0 in
                while !written < n do
                  written :=
                    !written + Unix.write_substring fd data !written (n - !written)
                done)));
    fsync =
      (fun path ->
        sys_errors path (fun () ->
            let fd = Unix.openfile path Unix.[ O_WRONLY; O_CLOEXEC ] 0 in
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () -> Unix.fsync fd)));
    fsync_dir =
      (fun dir ->
        sys_errors dir (fun () ->
            let fd = Unix.openfile dir Unix.[ O_RDONLY; O_CLOEXEC ] 0 in
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                (* some filesystems refuse to fsync a directory fd *)
                try Unix.fsync fd with Unix.Unix_error (Unix.EINVAL, _, _) -> ())));
    rename = (fun ~src ~dst -> Sys.rename src dst);
    delete = Sys.remove;
    mkdir = (fun dir -> Sys.mkdir dir 0o755);
    exists = Sys.file_exists;
  }

type fault_mode = Crash | Torn | Enospc

(* Predicate-driven fault injection: [should_fail op path] is consulted on
   every operation, so a chaos plan can script one-shot crashes ("the 7th
   mutating operation"), transient faults ("first two manifest fsyncs"),
   persistent ones ("every write to this path") and read-side damage. *)
let flaky ?(mode = Crash) ~should_fail base =
  let boom what =
    match mode with
    | Crash | Torn -> raise (Fault (Fmt.str "injected fault (%s)" what))
    | Enospc -> raise (Sys_error (Fmt.str "%s: No space left on device (injected)" what))
  in
  {
    list_dir =
      (fun dir ->
        if should_fail List_dir dir then boom ("list " ^ dir) else base.list_dir dir);
    read_file =
      (fun path ->
        if should_fail Read path then
          match mode with
          | Crash | Enospc -> boom ("read " ^ path)
          | Torn ->
              (* silent damage: a truncated read with no error — the CRC
                 gate, not the IO layer, must catch this *)
              let r = base.read_file path in
              String.sub r 0 (String.length r / 2)
        else base.read_file path);
    write_file =
      (fun path data ->
        if should_fail Write path then begin
          (match mode with
          | Crash -> ()
          | Torn | Enospc ->
              base.write_file path (String.sub data 0 (String.length data / 2)));
          boom ("write " ^ path)
        end
        else base.write_file path data);
    fsync =
      (fun path -> if should_fail Fsync path then boom ("fsync " ^ path) else base.fsync path);
    fsync_dir =
      (fun dir ->
        if should_fail Fsync_dir dir then boom ("fsync-dir " ^ dir)
        else base.fsync_dir dir);
    rename =
      (fun ~src ~dst ->
        if should_fail Rename dst then boom ("rename " ^ dst) else base.rename ~src ~dst);
    delete =
      (fun path ->
        if should_fail Delete path then boom ("delete " ^ path) else base.delete path);
    mkdir =
      (fun dir -> if should_fail Mkdir dir then boom ("mkdir " ^ dir) else base.mkdir dir);
    exists = base.exists;
  }

(* ---- fault classification ----------------------------------------------

   Which IO failures are worth retrying? Injected [Fault]s model crashes
   and torn writes — the transient kind the chaos harness scripts.
   [Sys_error] covers both transient conditions (full disk that a cleanup
   may free, EINTR, EAGAIN, flaky media) and permanent ones (permission
   denied, no such directory); only messages recognisably of the first
   kind classify as transient. *)

let transient_fragments =
  [
    "No space left";
    "Resource temporarily unavailable";
    "Interrupted system call";
    "Input/output error";
    "Too many open files";
    "Device or resource busy";
  ]

let contains ~needle hay =
  let nh = String.length needle and lh = String.length hay in
  let rec go i = i + nh <= lh && (String.sub hay i nh = needle || go (i + 1)) in
  go 0

let classify_error = function
  | Fault _ -> Imprecise_resilience.Retry.Transient
  | Sys_error msg
    when List.exists (fun needle -> contains ~needle msg) transient_fragments ->
      Imprecise_resilience.Retry.Transient
  | _ -> Imprecise_resilience.Retry.Permanent

(* ---- operation labels --------------------------------------------------

   The store runs different kinds of operations through one [t]: staging a
   document, committing the manifest, cleaning up superseded generations,
   quarantining damage. A spy that only sees [op] and [path] cannot tell a
   manifest-commit write from a document write, so the store brackets each
   kind in [with_tag] and tagged observers read the ambient label. *)

let default_tag = "io"

let tag_stack = ref []

let current_tag () = match !tag_stack with t :: _ -> t | [] -> default_tag

let with_tag tag f =
  tag_stack := tag :: !tag_stack;
  Fun.protect ~finally:(fun () -> tag_stack := List.tl !tag_stack) f

let observe_tagged f base =
  let report op ~bytes path = f op ~tag:(current_tag ()) ~bytes path in
  {
    list_dir =
      (fun dir ->
        let r = base.list_dir dir in
        report List_dir ~bytes:0 dir;
        r);
    read_file =
      (fun path ->
        let r = base.read_file path in
        report Read ~bytes:(String.length r) path;
        r);
    write_file =
      (fun path data ->
        base.write_file path data;
        report Write ~bytes:(String.length data) path);
    fsync =
      (fun path ->
        base.fsync path;
        report Fsync ~bytes:0 path);
    fsync_dir =
      (fun dir ->
        base.fsync_dir dir;
        report Fsync_dir ~bytes:0 dir);
    rename =
      (fun ~src ~dst ->
        base.rename ~src ~dst;
        report Rename ~bytes:0 dst);
    delete =
      (fun path ->
        base.delete path;
        report Delete ~bytes:0 path);
    mkdir =
      (fun dir ->
        base.mkdir dir;
        report Mkdir ~bytes:0 dir);
    exists = base.exists;
  }

let observe f base = observe_tagged (fun op ~tag:_ ~bytes:_ path -> f op path) base

(* ---- metrics ----------------------------------------------------------- *)

module Obs = Imprecise_obs.Obs

(* Registered at load time: the store's metric names are part of the
   catalogue even for processes that never touch a store. *)
let () =
  List.iter
    (fun name -> ignore (Obs.Metrics.counter name))
    [ "store.bytes_written"; "store.bytes_read"; "store.fsyncs"; "store.renames"; "store.deletes" ]

let metered ?registry base =
  let counter name =
    match registry with
    | None -> Obs.Metrics.counter name
    | Some registry -> Obs.Metrics.counter ~registry name
  in
  let bytes_written = counter "store.bytes_written" in
  let bytes_read = counter "store.bytes_read" in
  let fsyncs = counter "store.fsyncs" in
  let renames = counter "store.renames" in
  let deletes = counter "store.deletes" in
  observe_tagged
    (fun op ~tag ~bytes _path ->
      match op with
      | Write ->
          Obs.Metrics.incr ~by:bytes bytes_written;
          (* per-label attribution: store.writes.doc vs store.writes.manifest *)
          Obs.Metrics.incr (counter ("store.writes." ^ tag));
          Obs.Metrics.incr ~by:bytes (counter ("store.write_bytes." ^ tag))
      | Read -> Obs.Metrics.incr ~by:bytes bytes_read
      | Fsync | Fsync_dir -> Obs.Metrics.incr fsyncs
      | Rename -> Obs.Metrics.incr renames
      | Delete -> Obs.Metrics.incr deletes
      | List_dir | Mkdir -> ())
    base

let list_dir t = t.list_dir

let read_file t = t.read_file

let write_file t = t.write_file

let fsync t = t.fsync

let fsync_dir t = t.fsync_dir

let rename t = t.rename

let delete t = t.delete

let mkdir t = t.mkdir

let exists t = t.exists
